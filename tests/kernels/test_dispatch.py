"""Size-aware per-call dispatch: registry, thresholds, routing, obs.

Covers the three pillars of the dispatch layer:

* :class:`~repro.kernels.registry.KernelRegistry` — the two-tier
  contract: every op has a reference implementation, all but
  ``skyline_filter``/``antichain`` a vectorized one, and those two
  resolve to the reference under any selection;
* :mod:`repro.kernels.dispatch` — threshold resolution (explicit >
  cache > calibration > defaults), sizers, and the auto/pinned
  dispatcher routing semantics;
* the obs contract — ``kernel_calls_total`` labels the backend the
  dispatcher *chose* per call.
"""

import json

import pytest

from repro import kernels
from repro.config import ReproConfig
from repro.kernels import dispatch
from repro.kernels.dispatch import (
    NEVER,
    AutoDispatcher,
    PinnedDispatcher,
)
from repro.kernels.registry import KernelRegistry
from repro.obs.metrics import MetricRegistry

#: The auto route table under the shipped defaults (``set_thresholds({})``),
#: copied out by hand: a retune of ``DEFAULT_THRESHOLDS`` must fail a test
#: (the benchmark pins these routes, so its call counts depend on them).
SHIPPED_ROUTES = {
    "dominates_any": [(512, "numpy"), (0, "python")],
    "skyline_filter": [(0, "python")],
    "cover_corner_scores": [(12, "numpy"), (0, "python")],
    "cross_product_max": [(256, "numpy"), (0, "python")],
    "cover_carve": [(0, "python")],  # NEVER: conversion outweighs the loop
    "grid_cell_assign": [(8, "numpy"), (0, "python")],
    "antichain": [(0, "python")],
    "grid_carve": [(64, "numpy"), (0, "python")],
}


@pytest.fixture(autouse=True)
def _restore_dispatch_state():
    """Leave backend selection, thresholds and obs sink as found."""
    previous = kernels.kernel_name()
    yield
    dispatch.reset()
    kernels.unobserve()
    kernels.set_backend(previous)


def _points(n, e=2):
    return [((i % 9 + 1) / 10.0,) * e for i in range(n)]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestKernelRegistry:
    def test_every_op_has_exactly_two_tiers(self):
        # ... but for the two whose vectorized tier never won at any size.
        single = {"skyline_filter", "antichain"}
        for op in kernels.KERNEL_OPS:
            tiers = {"reference"} if op in single else {"reference", "vectorized"}
            assert set(kernels.REGISTRY.implementations(op)) == tiers

    @pytest.mark.parametrize("op", ["skyline_filter", "antichain"])
    def test_single_tier_op_resolves_to_reference_under_a_numpy_pin(self, op):
        assert kernels.REGISTRY.resolve(op, "vectorized").used == "python"
        metrics = MetricRegistry()
        kernels.observe(metrics)
        with kernels.use_backend("numpy"):
            getattr(kernels, op)([(1, 2), (2, 1), (1, 1)])
        assert metrics.value("kernel_calls_total", kernel="python", fn=op) == 1
        assert metrics.value("kernel_calls_total", kernel="numpy", fn=op) is None

    def test_resolve_requested_tier(self):
        resolved = kernels.REGISTRY.resolve("dominates_any", "reference")
        assert (resolved.op, resolved.used) == ("dominates_any", "python")
        assert resolved.impl([(0.9, 0.9)], (0.5, 0.5)) is True
        assert kernels.REGISTRY.resolve(
            "dominates_any", "vectorized"
        ).used == "numpy"

    def test_resolve_all_covers_every_op(self):
        table = kernels.REGISTRY.resolve_all("vectorized")
        assert set(table) == set(kernels.KERNEL_OPS)
        assert {op for op, resolved in table.items() if resolved.used != "numpy"} == {
            "skyline_filter", "antichain",
        }

    def test_unknown_op_and_tier_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel op"):
            kernels.REGISTRY.resolve("transmogrify", "reference")
        registry = KernelRegistry(kernels.KERNEL_OPS)
        with pytest.raises(ValueError, match="unknown kernel tier"):
            registry.register("gpu", object())
        # The reference tier must implement every op.
        with pytest.raises(AttributeError):
            registry.register("reference", object())

    def test_backend_names(self):
        assert kernels.REGISTRY.backend_names() == ("numpy", "python")
        assert kernels.available_backends() == ("numpy", "python")
        assert kernels.BACKEND_CHOICES == ("auto", "numpy", "python")


# ----------------------------------------------------------------------
# Threshold resolution
# ----------------------------------------------------------------------
class TestThresholds:
    def test_set_thresholds_partial_override(self):
        dispatch.set_thresholds({"dominates_any": {"numpy": 7}})
        table = kernels.dispatch_thresholds()
        assert table["dominates_any"]["numpy"] == 7
        # Unnamed cells keep their defaults.
        assert (
            table["cover_corner_scores"]
            == dispatch.DEFAULT_THRESHOLDS["cover_corner_scores"]
        )

    def test_unknown_ops_and_backends_ignored(self):
        dispatch.set_thresholds(
            {"warp": {"numpy": 1}, "antichain": {"numpy": 1},
             "grid_carve": {"gpu": 1, "numpy": 5}}
        )
        table = kernels.dispatch_thresholds()
        assert "warp" not in table
        assert "antichain" not in table  # single-tier op: nothing to route
        assert "gpu" not in table["grid_carve"]
        assert table["grid_carve"]["numpy"] == 5

    def test_precedence_explicit_cache_calibration_defaults(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        calls = []

        def fake_calibrate(registry, **kwargs):
            calls.append(1)
            return {"dominates_any": {"numpy": 77}}

        monkeypatch.setattr(dispatch, "calibrate", fake_calibrate)
        # No cache: calibration runs once, is memoised on disk, and
        # cells it does not name keep the shipped defaults.
        dispatch.reset()
        table = kernels.dispatch_thresholds()
        assert table["dominates_any"]["numpy"] == 77
        assert table["cover_carve"] == dispatch.DEFAULT_THRESHOLDS["cover_carve"]
        assert calls == [1] and dispatch._cache_path().exists()
        # Cache beats calibration: a fresh resolution measures nothing.
        dispatch._store_cache(
            kernels.REGISTRY, {"dominates_any": {"numpy": 42}}
        )
        dispatch.reset()
        assert kernels.dispatch_thresholds()["dominates_any"]["numpy"] == 42
        assert calls == [1]
        # Explicit beats the cache.
        dispatch.set_thresholds({"dominates_any": {"numpy": 7}})
        assert kernels.dispatch_thresholds()["dominates_any"]["numpy"] == 7

    def test_env_file_override(self, tmp_path, monkeypatch):
        # The env-file level is retired: the variable is inert, for the
        # dispatcher and for ReproConfig.from_env() alike.
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps(
            {"thresholds": {"dominates_any": {"numpy": 3}}}
        ))
        monkeypatch.setenv("REPRO_KERNEL_THRESHOLDS", str(path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(dispatch, "calibrate", lambda registry, **kw: {})
        dispatch.reset()
        assert kernels.dispatch_thresholds()["dominates_any"]["numpy"] == 512
        assert ReproConfig.from_env().kernel_thresholds is None

    def test_shipped_route_table_literal(self):
        dispatch.set_thresholds({})
        assert kernels.dispatch_routes() == SHIPPED_ROUTES

    def test_retired_numba_cells_ignored(self, tmp_path, monkeypatch):
        cells = {"dominates_any": {"numpy": 11, "numba": 48},
                 "weak_dominance_mask": {"numpy": 64, "numba": 32}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"thresholds": cells}))
        assert dispatch.load_thresholds_file(path)["dominates_any"] == {
            "numpy": 11,
        }
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        dispatch._store_cache(kernels.REGISTRY, cells)
        cached = dispatch._load_cache(kernels.REGISTRY)
        assert cached["dominates_any"] == {"numpy": 11}
        assert set(cached) == set(dispatch.DEFAULT_THRESHOLDS)

    def test_cache_naming_numba_is_stale_and_recalibrates(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        dispatch._store_cache(
            kernels.REGISTRY, {"dominates_any": {"numpy": 42, "numba": 48}}
        )
        payload = json.loads(dispatch._cache_path().read_text())
        payload["meta"]["backends"] = ["numba", "numpy", "python"]
        dispatch._cache_path().write_text(json.dumps(payload))
        monkeypatch.setattr(
            dispatch, "calibrate",
            lambda registry, **kwargs: {"dominates_any": {"numpy": 9}},
        )
        dispatch.reset()
        assert kernels.dispatch_thresholds()["dominates_any"] == {"numpy": 9}
        rewritten = json.loads(dispatch._cache_path().read_text())
        assert rewritten["meta"]["backends"] == ["numpy", "python"]

    def test_load_thresholds_file_bare_mapping(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"grid_carve": {"numpy": 11}}))
        table = dispatch.load_thresholds_file(path)
        assert table["grid_carve"]["numpy"] == 11

    def test_cache_roundtrip_and_staleness(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        registry = kernels.REGISTRY
        dispatch._store_cache(registry, {"dominates_any": {"numpy": 42}})
        cached = dispatch._load_cache(registry)
        assert cached is not None
        assert cached["dominates_any"]["numpy"] == 42
        # A cache written under a different backend set must be ignored.
        payload = json.loads(dispatch._cache_path().read_text())
        payload["meta"]["backends"] = ["python", "cuda"]
        dispatch._cache_path().write_text(json.dumps(payload))
        assert dispatch._load_cache(registry) is None

    def test_calibrate_measures_every_op(self):
        measured = dispatch.calibrate(kernels.REGISTRY, budget=1.0)
        # An op with one implementation has no crossover to measure.
        assert set(measured) == set(kernels.KERNEL_OPS) - {
            "skyline_filter", "antichain",
        }
        for table in measured.values():
            assert all(isinstance(v, int) and v >= 1 for v in table.values())

    def test_calibrate_respects_budget(self):
        # A zero budget measures nothing (every op keeps its defaults).
        assert dispatch.calibrate(kernels.REGISTRY, budget=0.0) == {}


# ----------------------------------------------------------------------
# Dispatcher routing
# ----------------------------------------------------------------------
class TestAutoDispatcher:
    def test_small_batches_stay_on_reference(self):
        dispatch.set_thresholds({"cover_corner_scores": {"numpy": 100}})
        dispatcher = AutoDispatcher(kernels.REGISTRY)
        small = dispatcher.select("cover_corner_scores", (_points(4),))
        assert small.used == "python"
        large = dispatcher.select("cover_corner_scores", (_points(200),))
        assert large.used == "numpy"

    def test_never_sentinel_disables_backend(self):
        dispatch.set_thresholds({"dominates_any": {"numpy": NEVER}})
        dispatcher = AutoDispatcher(kernels.REGISTRY)
        chosen = dispatcher.select("dominates_any", (_points(100_000),))
        assert chosen.used == "python"

    def test_threshold_change_rebuilds_live_routes(self):
        dispatch.set_thresholds({"grid_carve": {"numpy": 5}})
        dispatcher = AutoDispatcher(kernels.REGISTRY)
        assert dispatcher.select("grid_carve", (_points(10),)).used == "numpy"
        dispatch.set_thresholds({"grid_carve": {"numpy": NEVER}})
        assert dispatcher.select("grid_carve", (_points(10),)).used == "python"

    def test_cross_product_sizer_multiplies(self):
        dispatch.set_thresholds({"cross_product_max": {"numpy": 100}})
        dispatcher = AutoDispatcher(kernels.REGISTRY)
        scores = [0.1] * 20
        assert dispatcher.select(
            "cross_product_max", (scores, scores)
        ).used == "numpy"  # 20 * 20 = 400 >= 100
        assert dispatcher.select(
            "cross_product_max", (scores[:4], scores[:4])
        ).used == "python"  # 16 < 100

    def test_cover_carve_sizer_sums_cover_and_observed(self):
        dispatch.set_thresholds({"cover_carve": {"numpy": 30}})
        dispatcher = AutoDispatcher(kernels.REGISTRY)
        cover, observed = _points(20), _points(20)
        assert dispatcher.select(
            "cover_carve", (cover, observed)
        ).used == "numpy"  # 20 + 20 >= 30
        assert dispatcher.select(
            "cover_carve", (cover[:5], observed[:5])
        ).used == "python"

    def test_routes_snapshot_anchor(self):
        routes = AutoDispatcher(kernels.REGISTRY).routes_snapshot()
        assert set(routes) == set(kernels.KERNEL_OPS)
        for entries in routes.values():
            sizes = [size for size, _ in entries]
            assert sizes == sorted(sizes, reverse=True)
            assert entries[-1] == (0, "python")


class TestPinnedDispatcher:
    def test_python_pin_ignores_batch_size(self):
        dispatcher = PinnedDispatcher(kernels.REGISTRY, "python")
        assert dispatcher.select(
            "cover_corner_scores", (_points(100_000),)
        ).used == "python"

    def test_numpy_pin_ignores_batch_size(self):
        dispatcher = PinnedDispatcher(kernels.REGISTRY, "numpy")
        assert dispatcher.select(
            "cover_corner_scores", (_points(1),)
        ).used == "numpy"


# ----------------------------------------------------------------------
# Observability: chosen-backend counters
# ----------------------------------------------------------------------
class TestDispatchObservability:
    def test_calls_counted_under_chosen_backend(self):
        dispatch.set_thresholds({"cover_corner_scores": {"numpy": 100}})
        metrics = MetricRegistry()
        kernels.observe(metrics)
        with kernels.use_backend("auto"):
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
        with kernels.use_backend("python"):
            kernels.skyline_filter(_points(3))
        assert metrics.value(
            "kernel_calls_total", kernel="python", fn="skyline_filter"
        ) is None


# ----------------------------------------------------------------------
# Config wiring
# ----------------------------------------------------------------------
class TestConfigWiring:
    def test_numba_is_not_a_config_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            ReproConfig(kernel="numba")

    def test_kernel_thresholds_file_applied(self, tmp_path):
        path = tmp_path / "thr.json"
        path.write_text(json.dumps({"grid_carve": {"numpy": 13}}))
        config = ReproConfig(kernel="auto", kernel_thresholds=str(path))
        assert config.apply() == "auto"
        assert kernels.dispatch_thresholds()["grid_carve"]["numpy"] == 13
