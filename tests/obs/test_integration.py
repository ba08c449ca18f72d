"""End-to-end observability: instrumented operators, exported streams.

The central acceptance check: the JSONL event stream of an FRPA run must
reconstruct the paper's Figure 2(b) io/bound/other breakdown to match the
legacy ``TimingBreakdown`` the operator reports directly.
"""

import pytest

from repro import kernels
from repro.core.operators import OPERATORS, make_operator
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.experiments.harness import averaged_runs, run_operator
from repro.obs import (
    NULL_OBS,
    JsonlExporter,
    Observability,
    read_events,
    reconstruct_timing,
)
from repro.plan.pipeline import Pipeline

PARAMS = WorkloadParams(e=2, c=0.5, z=0.5, k=5, scale=0.0005, seed=0)


@pytest.fixture(scope="module")
def instance():
    return lineitem_orders_instance(PARAMS)


class TestTimingReconstruction:
    @pytest.mark.parametrize("operator", ["FRPA", "HRJN*", "a-FRPA"])
    def test_events_match_legacy_breakdown(self, tmp_path, instance, operator):
        path = tmp_path / "events.jsonl"
        obs = Observability(exporters=[JsonlExporter(path)])
        op = make_operator(operator, instance, obs=obs)
        op.top_k(5)
        legacy = op.timing()
        obs.close()
        rebuilt = reconstruct_timing(read_events(path), op=operator)
        assert rebuilt["io"] == pytest.approx(legacy.io, rel=1e-9)
        assert rebuilt["bound"] == pytest.approx(legacy.bound, rel=1e-9)
        assert rebuilt["total"] == pytest.approx(legacy.total, rel=1e-9)
        assert rebuilt["other"] == pytest.approx(legacy.other, rel=1e-6, abs=1e-9)


class TestOperatorMetrics:
    def test_pull_counters_match_depths(self, instance):
        obs = Observability()
        op = make_operator("FRPA", instance, obs=obs)
        op.top_k(5)
        metrics = obs.metrics
        assert [metrics.value("pulls_total", op="FRPA", side=side)
                for side in ("left", "right")] == op.depths()
        assert metrics.value("results_emitted_total", op="FRPA") == 5

    def test_bound_recompute_counter_matches_scheme(self, instance):
        obs = Observability()
        op = make_operator("FRPA", instance, obs=obs)
        op.top_k(5)
        assert metrics_value(obs, "bound_recompute_total", op="FRPA",
                             scheme="FR*") == op.bound_scheme.cover_recomputations

    def test_decision_matrix_cache_accounting(self, instance):
        obs = Observability()
        op = make_operator("FRPA", instance, obs=obs)
        op.top_k(5)
        recomputations = metrics_value(obs, "bound_recompute_total", op="FRPA",
                                       scheme="FR*")
        pulls = sum(metrics_value(obs, "pulls_total", op="FRPA", side=side)
                    for side in ("left", "right"))
        # Table 1: each pull reads three cached components and recomputes
        # only the ones it invalidated, where FR recomputes all three.
        assert pulls == op.pulls
        assert 0 < recomputations < 3 * pulls

    def test_afr_gridtree_metrics(self):
        # Tiny cover budgets force the exact → grid transfer and then
        # halvings — several inside one update, the hand-over's included
        # (the last two runs counted 4 of 6 and 4 of 5 a side when an update
        # added at most one): drops == log2(initial / final), per side.
        for params, initial, budget, final in (
            (PARAMS, 8, 4, 4),
            (WorkloadParams(e=2, scale=0.0005, seed=0), 1024, 16, 16),
            (WorkloadParams(e=3, scale=0.001, seed=1), 64, 8, 2),
        ):
            inst = lineitem_orders_instance(params)
            obs = Observability()
            op = make_operator(
                "a-FRPA", inst, obs=obs, max_cr_size=budget, resolution=initial,
            )
            op.top_k(inst.k)
            assert metrics_value(
                obs, "cover_grid_transfers_total", op="a-FRPA") == 2
            assert op.bound_scheme.cover_resolutions == (final, final)
            for side in ("left", "right"):
                assert metrics_value(
                    obs, "gridtree_resolution", op="a-FRPA", side=side) == final
                drops = metrics_value(
                    obs, "gridtree_resolution_drops_total", op="a-FRPA", side=side)
                assert 2 ** drops == initial // final

    @pytest.mark.parametrize("operator, fn", [
        ("FRPA", "cover_carve"), ("PBRJ_FR^RR", "cross_product_max")])
    def test_kernel_calls_go_to_the_running_operators_pipeline(
            self, instance, operator, fn):
        """Kernel calls are booked to the pipeline of the operator making
        them, not to the pipeline of the operator built last."""
        try:
            solo = Observability()
            make_operator(operator, instance, obs=solo).top_k(5)
            expected = kernel_calls(solo)
            assert expected.get(fn, 0) > 0
            first, second = Observability(), Observability()
            built_first = make_operator(operator, instance, obs=first)
            built_second = make_operator(operator, instance, obs=second)
            built_first.top_k(5)
            assert kernel_calls(first) == expected
            assert kernel_calls(second) == {}
            built_second.top_k(5)
            assert kernel_calls(first) == kernel_calls(second) == expected
        finally:
            kernels.unobserve()


class TestDisabledOverhead:
    def test_null_obs_registers_nothing(self, instance):
        before = len(NULL_OBS._tracers)
        op = make_operator("FRPA", instance)
        op.top_k(2)
        assert len(NULL_OBS._tracers) == before
        assert NULL_OBS.metrics.snapshot() == []

    def test_track_time_true_without_obs_still_times(self, instance):
        op = make_operator("FRPA", instance)
        op.top_k(2)
        assert op.timing().total > 0.0


class TestHarnessEvents:
    def test_run_operator_emits_run_event(self, tmp_path, instance):
        path = tmp_path / "events.jsonl"
        obs = Observability(exporters=[JsonlExporter(path)])
        run_operator("HRJN*", instance, obs=obs)
        obs.close()
        events = read_events(path)
        runs = [e for e in events if e.get("name") == "run"]
        assert len(runs) == 1
        assert runs[0]["operator"] == "HRJN*"
        assert runs[0]["depths"]["sum"] > 0
        assert runs[0]["timing"]["total"] >= 0.0

    def test_averaged_runs_emit_per_seed_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = Observability(exporters=[JsonlExporter(path)])
        averaged_runs(PARAMS, ["HRJN"], num_seeds=2, obs=obs)
        obs.close()
        runs = [e for e in read_events(path) if e.get("name") == "run"]
        assert [r["seed"] for r in runs] == [PARAMS.seed, PARAMS.seed + 1]


class TestPipelineObservability:
    def test_stages_register_separate_tracers(self):
        from repro.core.tuples import RankTuple
        from repro.relation.relation import Relation

        def relation(name, rows, key_attr):
            tuples = [
                RankTuple(key=p[key_attr], scores=s, payload=dict(p))
                for p, s in rows
            ]
            return Relation(name, tuples)

        lineitem = relation(
            "L",
            [({"orderkey": 1}, (0.9,)), ({"orderkey": 2}, (0.8,)),
             ({"orderkey": 1}, (0.3,))],
            "orderkey",
        )
        orders = relation(
            "O",
            [({"orderkey": 1, "custkey": 10}, (0.7,)),
             ({"orderkey": 2, "custkey": 11}, (0.95,))],
            "orderkey",
        )
        customer = relation(
            "C",
            [({"custkey": 10}, (0.5,)), ({"custkey": 11}, (0.4,))],
            "custkey",
        )
        obs = Observability()
        pipeline = Pipeline(
            [lineitem, orders, customer], ["custkey"],
            operator="HRJN*", obs=obs,
        )
        pipeline.top_k(2)
        names = [name for name, _ in obs._tracers]
        assert names == ["HRJN*#1", "HRJN*#2"]
        # Per-stage timing stays separable despite the shared registry.
        assert pipeline.timing().total >= 0.0


def kernel_calls(obs) -> dict[str, int]:
    """``kernel_calls_total`` by op, summed over forms; booked ones only."""
    calls: dict[str, int] = {}
    for _, labels, counter in obs.metrics.metrics_named("kernel_calls_total"):
        if counter.value:
            calls[labels["fn"]] = calls.get(labels["fn"], 0) + counter.value
    return calls


def metrics_value(obs, name, **labels):
    value = obs.metrics.value(name, **labels)
    assert value is not None, f"metric {name}{labels} not recorded"
    return value


class TestEveryOperatorRunsInstrumented:
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_instrumented_run_matches_plain_depths(self, instance, operator):
        obs = Observability()
        instrumented = make_operator(operator, instance, obs=obs)
        instrumented.top_k(3)
        plain = make_operator(operator, instance)
        plain.top_k(3)
        assert instrumented.depths() == plain.depths()
