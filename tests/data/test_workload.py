"""Tests for workload factories."""

import json

import pytest

from repro.core.scoring import MinScore
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    load_workload,
    pipeline_tables,
    random_instance,
)
from repro.errors import WorkloadError


class TestWorkloadParams:
    def test_paper_defaults(self):
        params = WorkloadParams()
        assert (params.e, params.c, params.z, params.k) == (2, 0.5, 0.5, 10)

    def test_tpch_config_propagates(self):
        params = WorkloadParams(e=3, c=0.25, z=1.0, join_skew=0.8)
        config = params.tpch_config()
        assert config.num_scores == 3
        assert config.score_cut == 0.25
        assert config.score_skew == 1.0
        assert config.join_skew == 0.8

    @pytest.mark.parametrize("knob, value, wanted", [
        ("k", 2.5, "an integer"),
        ("e", 2.5, "an integer"),
        ("seed", 1.5, "an integer"),
        ("seed", -1, "non-negative"),
        ("scale", float("inf"), "finite and positive"),
        ("scale", float("nan"), "finite and positive"),
        ("z", -2, "finite and non-negative"),
        ("z", float("nan"), "finite and non-negative"),
        ("join_skew", -3, "finite and non-negative"),
        ("join_skew", float("inf"), "finite and non-negative"),
    ])
    def test_unrunnable_knob_is_one_line_naming_the_field(
        self, tmp_path, knob, value, wanted
    ):
        # From a file (JSON's NaN / Infinity included) and as a flag would
        # pass it: one WorkloadError line, never a generator's traceback.
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({knob: value}))
        for build in (lambda: load_workload(path),
                      lambda: WorkloadParams(**{knob: value})):
            with pytest.raises(WorkloadError) as info:
                build()
            message = str(info.value)
            assert f"{knob} must be {wanted}, got " in message
            assert "\n" not in message


class TestWorkloadFileExecutionKeys:
    """The execution-shape key (algorithm) validates at load time with
    one-line errors — not deep inside engine setup — and ``shards`` is not
    a key at all."""

    def _load(self, tmp_path, payload):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(payload))
        return load_workload(path)

    def test_valid_execution_shape(self, tmp_path):
        params = self._load(tmp_path, {"algorithm": "anyk"})
        assert params.algorithm == "anyk"

    def test_auto_values_accepted(self, tmp_path):
        # The planner chooses a core and an operator.
        params = self._load(tmp_path, {"algorithm": "auto"})
        assert params.algorithm == "auto"

    @pytest.mark.parametrize("shards", [0, -2, 1.5, "many", "auto", True, None])
    def test_invalid_shards_rejected(self, tmp_path, shards):
        # Sharding cannot be asked for: every value, 1 included, is refused.
        for value in (shards, 1):
            with pytest.raises(WorkloadError) as info:
                self._load(tmp_path, {"shards": value})
            message = str(info.value)
            assert "unknown keys ['shards']" in message
            assert "\n" not in message  # one line, CLI-displayable

    def test_unknown_exec_backend_rejected(self, tmp_path):
        # The key went with the process backend; even "serial" is refused.
        for backend in ("serial", "process"):
            with pytest.raises(WorkloadError) as info:
                self._load(tmp_path, {"exec_backend": backend})
            message = str(info.value)
            assert "unknown keys ['exec_backend']" in message
            assert "\n" not in message

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="unknown algorithm"):
            self._load(tmp_path, {"algorithm": "lawler"})


class TestLineitemOrders:
    def test_shape(self):
        instance = lineitem_orders_instance(WorkloadParams(scale=0.0003, e=2))
        assert instance.dims == (2, 2)
        assert len(instance.left) == 4 * len(instance.right)

    def test_custom_scoring(self):
        instance = lineitem_orders_instance(
            WorkloadParams(scale=0.0003), scoring=MinScore()
        )
        assert isinstance(instance.scoring, MinScore)

    def test_deterministic_per_seed(self):
        a = lineitem_orders_instance(WorkloadParams(scale=0.0003, seed=3))
        b = lineitem_orders_instance(WorkloadParams(scale=0.0003, seed=3))
        assert [t.scores for t in a.sorted_tuples(0)[:20]] == [
            t.scores for t in b.sorted_tuples(0)[:20]
        ]

    def test_keys_join(self):
        instance = lineitem_orders_instance(WorkloadParams(scale=0.0003))
        assert instance.join_size() == len(instance.left)  # FK join: 1 order each


class TestPipelineTables:
    def test_all_tables(self):
        tables = pipeline_tables(WorkloadParams(scale=0.0003, e=1))
        assert set(tables) == {"customer", "orders", "lineitem", "part"}
        assert tables["customer"].scores.shape[1] == 1


class TestRandomInstance:
    def test_independent_dimensions(self):
        instance = random_instance(
            n_left=50, n_right=40, e_left=3, e_right=1,
            num_keys=5, k=2, seed=0,
        )
        assert instance.dims == (3, 1)
        assert len(instance.left) == 50
        assert len(instance.right) == 40

    def test_expected_join_size(self):
        instance = random_instance(
            n_left=400, n_right=400, e_left=1, e_right=1,
            num_keys=40, k=1, seed=1,
        )
        expected = 400 * 400 / 40
        assert instance.join_size() == pytest.approx(expected, rel=0.3)


class TestAntiCorrelated:
    def test_scores_hug_the_diagonal(self):
        instance = anti_correlated_instance(
            n_left=500, n_right=500, num_keys=10, k=5, seed=0
        )
        sums = [sum(t.scores) for t in instance.left.tuples]
        mean = sum(sums) / len(sums)
        assert 0.9 < mean < 1.1

    def test_large_skylines(self):
        """Nearly every tuple should be a skyline point — the stress regime."""
        from repro.geometry.skyline import skyline

        instance = anti_correlated_instance(
            n_left=200, n_right=200, num_keys=10, k=5, jitter=0.01, seed=1
        )
        points = [t.scores for t in instance.left.tuples]
        assert len(skyline(points)) > len(points) / 4

    def test_runs_with_operators(self):
        from repro.core.operators import a_frpa

        instance = anti_correlated_instance(
            n_left=300, n_right=300, num_keys=10, k=5, seed=2
        )
        operator = a_frpa(instance, max_cr_size=16)
        assert len(operator.top_k(5)) == 5
