"""Columnar point-set kernels: the compute plane of the FR-family bounds.

The paper's empirical finding (Figure 2(b)) is that *bound computation*
dominates rank-join runtime.  This package concentrates that hot path
into a small batch-kernel interface over columnar :class:`PointSet`
storage, with two interchangeable implementation tiers, both always
present, behind a per-op :class:`~repro.kernels.registry.KernelRegistry`:

* ``"python"`` — :class:`~repro.kernels.reference.ReferenceBackend`,
  pure loops, the semantic oracle the tests compare against;
* ``"numpy"`` — :class:`~repro.kernels.vectorized.NumpyBackend`,
  one broadcast per batch, fastest on bulk.

Both tiers are **bit-identical**: same skylines, same cover rows, same
partial scores (float additions happen left-to-right in every tier), so
every operator-level invariant test doubles as a kernel-equivalence
oracle.  The ``cover_carve`` op answers with a *delta* (:func:`carve_patch`:
kept row ids plus fresh points) that the geometry layer's list-native
:class:`~repro.geometry.antichain.ScoredAntichain` applies in place — the
one op on the FR* pull path; :func:`cover_carve` assembles it into the
whole cover.

Per-call dispatch
-----------------
BENCH_kernels.json showed that no tier wins at every batch size — numpy
is 59–73× faster on bulk ops but *loses* to the early-exit loops on
small batches.  The default ``"auto"`` kernel therefore routes **each
call** by batch size against per-op crossover thresholds
(:mod:`repro.kernels.dispatch`: calibrated once per machine, cached to
``~/.cache/repro/kernel_thresholds.json``, overridable via
:func:`set_thresholds` / ``ReproConfig.kernel_thresholds``).
Pinned names (``python``/``numpy``) bypass the size test and resolve
every op at one tier.

Selection
---------
Selection is **process-wide only** — no query, engine or plan carries a
kernel of its own.  The active kernel is resolved, in priority order,
from

1. an explicit :func:`set_backend` / :func:`use_backend` call (the CLI
   ``--kernel`` flag and :class:`repro.config.ReproConfig` end here),
2. the ``REPRO_KERNEL`` environment variable (``auto``/``numpy``/``python``),
3. ``auto``: size-aware per-call dispatch over the two tiers.

Observability
-------------
:func:`observe` attaches a :class:`~repro.obs.metrics.MetricRegistry`;
afterwards every kernel call increments
``kernel_calls_total{kernel=…, fn=…}`` labelled with the backend the
dispatcher actually **chose** for that call (so ``python -m repro
trace`` shows the dispatch mix under ``auto``), and a
deterministic 1-in-16 sample of calls records wall-clock in the
``bound_kernel_seconds{kernel=…}`` histogram.  Call counts are exact;
only the latency histogram is sampled.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.kernels import dispatch as _dispatch
from repro.kernels.dispatch import (
    AutoDispatcher,
    PinnedDispatcher,
    set_thresholds,
)
from repro.kernels.pointset import PointSet
from repro.kernels.reference import ReferenceBackend, _rows
from repro.kernels.registry import BACKEND_TIER, KernelRegistry
from repro.kernels.types import (
    Cell,
    Point,
    as_cell,
    as_point,
    ones,
    substitute,
)
from repro.kernels.vectorized import NumpyBackend, _arr

#: The kernel operations.  The reference tier implements all of them, the
#: vectorized tier all but ``skyline_filter`` and ``antichain``.
KERNEL_OPS = (
    "dominates_any",
    "skyline_filter",
    "cover_corner_scores",
    "cross_product_max",
    "cover_carve",
    "grid_cell_assign",
    "antichain",
    "grid_carve",
)

#: Histogram boundaries for per-call kernel latencies (seconds).
KERNEL_SECONDS_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0,
)

#: The per-op implementation registry all dispatchers resolve against.
REGISTRY = KernelRegistry(KERNEL_OPS)
REGISTRY.register("reference", ReferenceBackend())
REGISTRY.register("vectorized", NumpyBackend())

#: Names accepted by :func:`set_backend` / ``REPRO_KERNEL`` / ``--kernel``.
BACKEND_CHOICES = ("auto", "numpy", "python")

ENV_VAR = "REPRO_KERNEL"


def available_backends() -> tuple[str, ...]:
    """The backend names (``numpy`` and ``python``, both always present)."""
    return REGISTRY.backend_names()


#: Dispatcher instances are cached per name so route tables and resolved
#: op tables survive backend switches (tests flip constantly).
_DISPATCHERS: dict[str, object] = {}


def _dispatcher(name: str):
    cached = _DISPATCHERS.get(name)
    if cached is None:
        if name == "auto":
            cached = AutoDispatcher(REGISTRY)
        else:
            cached = PinnedDispatcher(REGISTRY, name)
        _DISPATCHERS[name] = cached
    return cached


def _resolve(name: str | None):
    if name is None:
        name = "auto"
    name = str(name).strip().lower()
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {BACKEND_CHOICES}"
        )
    return _dispatcher(name)


def _from_env():
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return _resolve("auto")
    try:
        return _resolve(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {ENV_VAR}={raw!r}; using 'auto' "
            f"(choose from {BACKEND_CHOICES})",
            RuntimeWarning,
        )
        return _resolve("auto")


_active = _from_env()


def set_backend(name: str | None) -> str:
    """Select the active kernel; returns the selected name.

    ``name`` is one of :data:`BACKEND_CHOICES` (``None`` means ``auto``).
    ``auto`` dispatches per call by batch size; a pinned name resolves
    every op at that tier.  The selection is process-wide and stays
    until the next call — scope a temporary switch with
    :func:`use_backend`.
    """
    global _active
    _active = _resolve(name)
    return _active.name


def get_backend():
    """The active dispatcher (``auto`` routes per call; pinned names
    resolve every op at one tier)."""
    return _active


def kernel_name() -> str:
    """Name of the active kernel (``"auto"``, ``"numpy"`` or ``"python"``)."""
    return _active.name


@contextmanager
def use_backend(name: str):
    """Temporarily switch kernels (tests and benchmarks)."""
    global _active
    previous = _active
    _active = _resolve(name)
    try:
        yield _active
    finally:
        _active = previous


def dispatch_routes() -> dict[str, list[tuple[int, str]]]:
    """The auto dispatcher's live route table: op -> [(min_size, backend)].

    Entries are scanned high-to-low; the first whose ``min_size`` fits
    the batch wins.  Shown by ``python -m repro info``.
    """
    return _dispatcher("auto").routes_snapshot()


def dispatch_thresholds() -> dict[str, dict[str, int]]:
    """The resolved per-op crossover thresholds (min batch size per
    backend; ``dispatch.NEVER`` disables a backend for an op)."""
    return {
        op: dict(table)
        for op, table in _dispatch.thresholds(REGISTRY).items()
    }


def calibrate_thresholds(*, budget: float = 0.15) -> dict[str, dict[str, int]]:
    """Re-measure crossover thresholds on this machine and install them."""
    set_thresholds(_dispatch.calibrate(REGISTRY, budget=budget))
    return dispatch_thresholds()


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
#: Latency sampling period: every call is *counted*, but only one call
#: in ``_SAMPLE`` pays the ``perf_counter`` pair feeding the
#: ``bound_kernel_seconds`` histogram.  Kernel calls are by far the most
#: frequent instrumented operation on the serial hot path; deterministic
#: sampling (first call of each series always sampled) keeps the
#: histogram representative while holding total overhead inside the
#: observability plane's 5% budget.
_SAMPLE = 16


class _KernelHandle:
    """Pre-resolved metric handles for one (chosen backend, fn) series."""

    __slots__ = ("counter", "hist", "tick")

    def __init__(self, counter, hist) -> None:
        self.counter = counter
        self.hist = hist
        self.tick = _SAMPLE - 1  # first call is sampled

    def should_sample(self) -> bool:
        self.tick += 1
        if self.tick < _SAMPLE:
            return False
        self.tick = 0
        return True


class _InstrumentationSink:
    """Resolves and caches metric handles for kernel-call accounting.

    ``handles`` is keyed by the backend the dispatcher *chose* for the
    call plus the op name, and read directly by :func:`_call` — the
    steady-state cost of an instrumented kernel call is one dict lookup
    plus a counter increment.
    """

    __slots__ = ("_metrics", "handles")

    def __init__(self, metrics) -> None:
        self._metrics = metrics
        self.handles: dict[tuple[str, str], _KernelHandle] = {}

    def handle(self, backend: str, fn: str) -> _KernelHandle:
        key = (backend, fn)
        handle = self.handles.get(key)
        if handle is None:
            handle = self.handles[key] = _KernelHandle(
                self._metrics.counter("kernel_calls_total",
                                      kernel=backend, fn=fn),
                self._metrics.histogram("bound_kernel_seconds",
                                        buckets=KERNEL_SECONDS_BUCKETS,
                                        kernel=backend),
            )
        return handle


_sink: _InstrumentationSink | None = None


def observe(metrics) -> None:
    """Route kernel-call counters/latencies into ``metrics``.

    Called by instrumented operators (PBRJ with an observability
    pipeline).  The sink is process-global — concurrent pipelines share
    it, last registration wins — and adds one ``perf_counter`` pair per
    sampled kernel call, nothing when never registered.
    """
    global _sink
    _sink = _InstrumentationSink(metrics)


def unobserve() -> None:
    """Detach kernel instrumentation (zero-overhead dispatch again)."""
    global _sink
    _sink = None


def _call(fn: str, *args, **kwargs):
    entry = _active.select(fn, args)
    sink = _sink
    if sink is None:
        return entry.impl(*args, **kwargs)
    handle = sink.handles.get((entry.used, fn))
    if handle is None:
        handle = sink.handle(entry.used, fn)
    handle.counter.inc()
    if not handle.should_sample():
        return entry.impl(*args, **kwargs)
    start = perf_counter()
    try:
        return entry.impl(*args, **kwargs)
    finally:
        handle.hist.observe(perf_counter() - start)


# ----------------------------------------------------------------------
# Dispatch surface — one thin wrapper per kernel op
# ----------------------------------------------------------------------
def dominates_any(points, q) -> bool:
    """True if some row of ``points`` weakly dominates ``q``."""
    return _call("dominates_any", points, q)


def skyline_filter(points) -> list[int]:
    """Indices (input order, first-occurrence dedup) of the skyline."""
    return _call("skyline_filter", points)


def cover_corner_scores(points, weights=None):
    """Per-row partial score: plain or weighted left-to-right sum."""
    return _call("cover_corner_scores", points, weights)


def cross_product_max(left, right) -> float:
    """Max of ``l + r`` over the full cross product of two score lists."""
    return _call("cross_product_max", left, right)


def carve_patch(cover, observed, *, skyline_mode: bool = False):
    """``FR::UpdateCR`` (``FR*`` with ``skyline_mode``) as a delta
    ``(keep, fresh)`` — surviving row ids, then the new points — in lists
    from the reference tier, arrays from numpy.  Counted as ``cover_carve``."""
    return _call("cover_carve", cover, observed, skyline_mode=skyline_mode)


def cover_carve(cover, observed, *, skyline_mode: bool = False):
    """``FR::UpdateCR`` (``FR*`` with ``skyline_mode``): new cover points."""
    keep, fresh = carve_patch(cover, observed, skyline_mode=skyline_mode)
    if hasattr(fresh, "shape"):  # the numpy tier answers in arrays
        return np.concatenate([_arr(cover)[keep], fresh], axis=0)
    rows = _rows(cover)
    return [rows[i] for i in keep] + fresh


def grid_cell_assign(points, resolution: int):
    """Cell containing each point (coordinates rounded up onto the grid)."""
    return _call("grid_cell_assign", points, resolution)


def antichain(cells):
    """Reduce integer grid cells to their dominance antichain."""
    return _call("antichain", cells)


def grid_carve(cells, point, resolution: int):
    """``aFR::UpdateGridCR`` for one vector: ``(new_cells, changed)``."""
    return _call("grid_carve", cells, point, resolution)


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_TIER",
    "Cell",
    "KERNEL_OPS",
    "Point",
    "PointSet",
    "REGISTRY",
    "antichain",
    "as_cell",
    "as_point",
    "available_backends",
    "calibrate_thresholds",
    "carve_patch",
    "cover_carve",
    "cover_corner_scores",
    "cross_product_max",
    "dispatch_routes",
    "dispatch_thresholds",
    "dominates_any",
    "get_backend",
    "grid_carve",
    "grid_cell_assign",
    "kernel_name",
    "observe",
    "ones",
    "set_backend",
    "set_thresholds",
    "skyline_filter",
    "substitute",
    "unobserve",
    "use_backend",
]
