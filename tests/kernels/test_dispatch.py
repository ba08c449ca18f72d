"""Routing: two size thresholds, the one knob, counters by form.

* the threshold table — :func:`~repro.kernels.set_thresholds` (partial,
  strict), the explicit :func:`~repro.kernels.calibrate_thresholds`;
* routing, observed the only way a caller can — ``kernel_calls_total``
  labels every call with the form that *ran*: at the shipped thresholds
  (the golden: a retune must fail here, the benchmark's call counts depend
  on them), under installed thresholds, under the all-loop and all-numpy
  tables;
* no hidden state — a fresh process reads, writes and times nothing it was
  not asked to, and no environment variable moves a call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.core.operators import make_operator
from repro.core.scoring import WeightedSum
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    random_instance,
)
from repro.kernels import dispatch
from repro.kernels.dispatch import NEVER
from repro.obs.metrics import MetricRegistry
from repro.relation.relation import RankJoinInstance

from tests.conftest import KERNEL_TABLES, kernel_table

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _restore_dispatch_state():
    """Leave the thresholds and the obs sink as found."""
    yield
    kernels.set_thresholds({})
    kernels.unobserve()


def _points(n, e=2):
    return [((i % 9 + 1) / 10.0,) * e for i in range(n)]


def _counted(call, table=None):
    """``{(kernel, fn): calls}`` of one call under the live table, or under
    one of ``KERNEL_TABLES``."""
    metrics = MetricRegistry()
    kernels.observe(metrics)
    try:
        if table is None:
            call()
        else:
            with kernel_table(table):
                call()
    finally:
        kernels.unobserve()
    return {
        (labels["kernel"], labels["fn"]): counter.value
        for _, labels, counter in metrics.metrics_named("kernel_calls_total")
    }


#: The shipped policy, copied out by hand: op -> (smallest batch numpy
#: serves, a call one below it, a call at it).  ``cross_product_max``
#: counts pairs: 15 x 17 = 255, 16 x 16 = 256 — neither side has 256 rows.
SHIPPED = {
    "cover_corner_scores": (
        12,
        lambda: kernels.cover_corner_scores(_points(11)),
        lambda: kernels.cover_corner_scores(_points(12)),
    ),
    "cross_product_max": (
        256,
        lambda: kernels.cross_product_max([0.5] * 15, [0.25] * 17),
        lambda: kernels.cross_product_max([0.5] * 16, [0.25] * 16),
    ),
}

#: The ops that are their loops, on batches past any threshold there was.
ONE_FORM = {
    "dominates_any": lambda: kernels.dominates_any(_points(600), (0.95, 0.95)),
    "skyline_filter": lambda: kernels.skyline_filter(_points(600)),
    "cover_carve": lambda: kernels.cover_carve(_points(600), [(0.5, 0.5)]),
}

#: The cell plane's ops, retired when grid mode became the exact carve over
#: rounded observations: no such op, so no threshold either.
RETIRED = ("antichain", "grid_carve", "grid_cell_assign")


# ----------------------------------------------------------------------
# The threshold table
# ----------------------------------------------------------------------
class TestThresholds:
    def test_shipped_route_table_literal(self):
        assert kernels.dispatch_thresholds() == {
            op: {"numpy": size} for op, (size, _, _) in SHIPPED.items()
        }
        assert sorted(kernels.KERNEL_OPS) == sorted({*SHIPPED, *ONE_FORM})

    def test_set_thresholds_partial_override(self):
        kernels.set_thresholds({"cross_product_max": {"numpy": 7}})
        table = kernels.dispatch_thresholds()
        assert table["cross_product_max"] == {"numpy": 7}
        # Unnamed cells keep their shipped value.
        assert table["cover_corner_scores"] == {"numpy": 12}

    @pytest.mark.parametrize("restore", [{}, None])
    def test_empty_and_none_restore_the_shipped_table(self, restore):
        shipped = kernels.dispatch_thresholds()
        kernels.set_thresholds({"cross_product_max": {"numpy": 7}})
        kernels.set_thresholds(restore)
        assert kernels.dispatch_thresholds() == shipped

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="'cover_crave'"):
            kernels.set_thresholds({"cover_crave": {"numpy": 1}})

    @pytest.mark.parametrize("op", sorted({*ONE_FORM, *RETIRED}))
    def test_one_form_op_rejected(self, op):
        with pytest.raises(ValueError, match=repr(op)):
            kernels.set_thresholds({op: {"numpy": 1}})

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match=r"cross_product_max\.numba"):
            kernels.set_thresholds({"cross_product_max": {"numba": 1}})

    @pytest.mark.parametrize("size", [-1, 2.5, "64", None, True])
    def test_size_must_be_a_non_negative_integer(self, size):
        with pytest.raises(ValueError, match=r"cross_product_max\.numpy"):
            kernels.set_thresholds({"cross_product_max": {"numpy": size}})
        # A refused table installs nothing.
        assert kernels.dispatch_thresholds()["cross_product_max"] == {"numpy": 256}

    def test_calibrate_measures_every_op(self):
        measured = dispatch.calibrate(budget=1.0)
        # An op with one implementation has no crossover to measure.
        assert set(measured) == set(SHIPPED)
        for op in ("cover_corner_scores", "cross_product_max"):
            assert 1 <= measured[op]["numpy"] < NEVER  # numpy does win on bulk

    def test_calibrate_respects_budget(self):
        # A zero budget measures nothing (every op keeps its shipped cell).
        assert dispatch.calibrate(budget=0.0) == {}
        shipped = kernels.dispatch_thresholds()
        assert kernels.calibrate_thresholds(budget=0.0) == shipped

    def test_calibrate_thresholds_installs_what_it_measured(self, monkeypatch):
        monkeypatch.setattr(
            dispatch, "calibrate",
            lambda budget: {"cross_product_max": {"numpy": 9}},
        )
        assert kernels.calibrate_thresholds()["cross_product_max"] == {"numpy": 9}
        assert _counted(  # 3 x 3 = 9 pairs
            lambda: kernels.cross_product_max([0.5] * 3, [0.25] * 3)
        ) == {("numpy", "cross_product_max"): 1}


# ----------------------------------------------------------------------
# Routing, by counters
# ----------------------------------------------------------------------
class TestAutoDispatcher:
    """Numpy from the op's threshold up, the loop below it."""

    @pytest.mark.parametrize("op", sorted(SHIPPED))
    def test_shipped_threshold_is_the_boundary(self, op):
        _, below, at = SHIPPED[op]
        assert _counted(below) == {("python", op): 1}
        assert _counted(at) == {("numpy", op): 1}

    def test_small_batches_stay_on_reference(self):
        # The smallest there are: an empty operand, then a single row.
        for n in (0, 1):
            for op, call in {
                "cover_corner_scores": lambda: kernels.cover_corner_scores(_points(n)),
                "cross_product_max": lambda: kernels.cross_product_max([0.5] * n, [0.25]),
            }.items():
                assert _counted(call) == {("python", op): 1}, n

    def test_never_sentinel_disables_backend(self):
        kernels.set_thresholds({"cover_corner_scores": {"numpy": NEVER}})
        assert _counted(
            lambda: kernels.cover_corner_scores(_points(2_000))
        ) == {("python", "cover_corner_scores"): 1}

    def test_threshold_change_rebuilds_live_routes(self):
        def score():
            kernels.cover_corner_scores(_points(10))

        kernels.set_thresholds({"cover_corner_scores": {"numpy": 5}})
        assert _counted(score) == {("numpy", "cover_corner_scores"): 1}
        kernels.set_thresholds({"cover_corner_scores": {"numpy": NEVER}})
        assert _counted(score) == {("python", "cover_corner_scores"): 1}

    def test_cross_product_sizer_multiplies(self):
        kernels.set_thresholds({"cross_product_max": {"numpy": 100}})
        scores = [0.1] * 20
        assert _counted(  # 20 * 20 = 400 >= 100
            lambda: kernels.cross_product_max(scores, scores)
        ) == {("numpy", "cross_product_max"): 1}
        assert _counted(  # 16 < 100
            lambda: kernels.cross_product_max(scores[:4], scores[:4])
        ) == {("python", "cross_product_max"): 1}

    def test_routes_snapshot_anchor(self):
        # The whole shipped table in one observation: every op runs its
        # loop below its threshold, only the two-form ops have a numpy route.
        def every_op():
            for _, below, at in SHIPPED.values():
                below()
                at()
            for call in ONE_FORM.values():
                call()

        assert _counted(every_op) == {
            **{("python", op): 1 for op in kernels.KERNEL_OPS},
            **{("numpy", op): 1 for op in SHIPPED},
        }


class TestForcedTables:
    """A whole table forces one form wherever an op has two."""

    def test_all_loop_table_ignores_batch_size(self):
        for op, (_, below, at) in SHIPPED.items():
            assert _counted(below, "python") == {("python", op): 1}
            assert _counted(at, "python") == {("python", op): 1}

    def test_all_numpy_table_ignores_batch_size(self):
        for op, (_, below, at) in SHIPPED.items():
            assert _counted(below, "numpy") == {("numpy", op): 1}
            assert _counted(at, "numpy") == {("numpy", op): 1}

    def test_one_form_ops_always_run_their_loop(self):
        for op, call in ONE_FORM.items():
            for table in KERNEL_TABLES:
                assert _counted(call, table) == {("python", op): 1}, table


def _cold(instance):
    """The harness's first cold query over ``instance``'s relations."""
    return RankJoinInstance(
        instance.left, instance.right,
        WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6]), 10,
    )


def _cold_fr2():
    return _cold(lineitem_orders_instance(WorkloadParams(
        e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0)))


def _cold_frwide():
    return _cold(anti_correlated_instance(
        n_left=1000, n_right=1000, num_keys=250, k=10, seed=0))


def _staircases():
    return anti_correlated_instance(
        n_left=600, n_right=600, num_keys=60, k=10, seed=1)


def _small():
    return random_instance(n_left=300, n_right=300, e_left=2, e_right=2,
                           num_keys=30, k=10, seed=5)


#: ``{(kernel, fn): calls}`` of one top-10, recorded from PR 19 (the last
#: commit with the registry and the dispatchers) under ``set_thresholds({})``:
#: (operator, instance, operator options) -> counters.  The grid row was
#: restated when the cell plane went (361 ``cover_carve`` + 243 ``grid_carve``
#: + 2 ``grid_cell_assign`` + 7 ``antichain`` before, same 606 pulls).
OPERATOR_CALLS = [
    ("FRPA", _cold_fr2, {}, {("python", "cover_carve"): 380}),
    ("HRJN*", _cold_fr2, {}, {}),
    ("a-FRPA", _cold_frwide, {}, {("python", "cover_carve"): 824}),
    # Both covers outgrow 70 points and move onto the grid (1024 → 128 and
    # 1024 → 256): still one carve per non-empty group close — 606 pulls,
    # the first on each side closes nothing — plus one skyline per move onto
    # a coarser grid (4 + 3), and nothing on numpy.
    ("a-FRPA", _staircases, {"max_cr_size": 70, "resolution": 1024}, {
        ("python", "cover_carve"): 604,
        ("python", "skyline_filter"): 7,
    }),
    ("PBRJ_FR^RR", _small, {}, {
        ("python", "cover_carve"): 111,
        ("python", "cover_corner_scores"): 118,
        ("numpy", "cross_product_max"): 133,
        ("python", "cross_product_max"): 221,
    }),
]


@pytest.mark.parametrize(
    "name, build, options, expected", OPERATOR_CALLS,
    ids=["FRPA-cold_fr2", "HRJN*-cold_fr2", "a-FRPA-cold_frwide",
         "a-FRPA-grid", "PBRJ_FR^RR"],
)
def test_operator_routing_golden(name, build, options, expected):
    instance = build()
    assert _counted(
        lambda: make_operator(name, instance, **options).top_k(instance.k)
    ) == expected


# ----------------------------------------------------------------------
# Observability: counters by the form that ran
# ----------------------------------------------------------------------
class TestDispatchObservability:
    def test_calls_counted_under_chosen_backend(self):
        kernels.set_thresholds({"cover_corner_scores": {"numpy": 100}})
        metrics = MetricRegistry()
        kernels.observe(metrics)
        kernels.cover_corner_scores(_points(4))
        kernels.cover_corner_scores(_points(200))
        assert metrics.value(
            "kernel_calls_total", kernel="python", fn="cover_corner_scores"
        ) == 1
        assert metrics.value(
            "kernel_calls_total", kernel="numpy", fn="cover_corner_scores"
        ) == 1

    def test_unobserve_detaches(self):
        metrics = MetricRegistry()
        kernels.observe(metrics)
        kernels.unobserve()
        kernels.skyline_filter(_points(3))
        assert metrics.value(
            "kernel_calls_total", kernel="python", fn="skyline_filter"
        ) is None


# ----------------------------------------------------------------------
# No hidden state
# ----------------------------------------------------------------------
_FRESH_PROCESS = """
import json
from repro import kernels
from repro.core.naive import naive_top_k
from repro.core.operators import make_operator
from repro.data.workload import anti_correlated_instance


def unasked(*args, **kwargs):
    raise AssertionError("calibration nobody asked for")


kernels.calibrate_thresholds = kernels._dispatch.calibrate = unasked
before = kernels.dispatch_thresholds()
instance = anti_correlated_instance(
    n_left=200, n_right=200, num_keys=20, k=10, seed=1)
oracle = [r.score for r in naive_top_k(
    instance.left.tuples, instance.right.tuples, instance.scoring, 10)]
operators = [
    make_operator(name, instance, **options)
    for name, options in (
        ("FRPA", {}),
        ("a-FRPA", {"max_cr_size": 8, "resolution": 64}),
        ("PBRJ_FR^RR", {}),
    )
]
print(json.dumps({
    "answers": [[r.score for r in op.top_k(10)] == oracle for op in operators],
    "before": before,
    "after": kernels.dispatch_thresholds(),
    "cover_modes": operators[1].bound_scheme.cover_modes,
}))
"""


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_a_fresh_process_reads_writes_and_times_nothing(tmp_path):
    """The parent calibrated inside the first kernel call and cached the
    result under ``$XDG_CACHE_HOME`` — or routed by whatever it found there."""
    cache = tmp_path / ".cache"  # $XDG_CACHE_HOME and $HOME/.cache alike
    decoy = cache / "repro" / "kernel_thresholds.json"
    decoy.parent.mkdir(parents=True)
    absurd = {op: {"numpy": 0} for op in kernels.KERNEL_OPS}
    decoy.write_text(json.dumps({
        "meta": {"version": 2, "backends": ["numpy", "python"],
                 "python": f"{sys.version_info[0]}.{sys.version_info[1]}"},
        "thresholds": absurd,
    }))
    found = _tree(tmp_path)
    env = {
        "PYTHONPATH": SRC, "PATH": os.environ.get("PATH", ""),
        "HOME": str(tmp_path), "XDG_CACHE_HOME": str(cache),
        "REPRO_KERNEL_THRESHOLDS": str(decoy),  # retired long ago: inert
    }
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["answers"] == [True, True, True]
    assert report["cover_modes"] == ["grid", "grid"]  # a-FRPA did move over
    shipped = {op: {"numpy": size} for op, (size, _, _) in SHIPPED.items()}
    assert report["before"] == report["after"] == shipped
    assert _tree(tmp_path) == found  # decoy byte-identical, nothing new


_ROUTED = """
import json
from repro import kernels
from repro.obs.metrics import MetricRegistry

metrics = MetricRegistry()
kernels.observe(metrics)
kernels.cover_corner_scores([(0.5, 0.5)] * 11)
kernels.cover_corner_scores([(0.5, 0.5)] * 12)
print(json.dumps(sorted(
    (labels["kernel"], counter.value)
    for _, labels, counter in metrics.metrics_named("kernel_calls_total")
)))
"""


@pytest.mark.parametrize("value", ["python", "numpy", "numba"])
def test_repro_kernel_is_inert(value):
    """The retired pin's variable moves no call and warns about nothing:
    one call below the shipped threshold runs the loop, one at it numpy."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _ROUTED],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": SRC, "PATH": os.environ.get("PATH", ""),
             "REPRO_KERNEL": value},
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == [["numpy", 1], ["python", 1]]
