"""Point-set kernels: the compute plane of the FR-family bounds.

The paper's empirical finding (Figure 2(b)) is that *bound computation*
dominates rank-join runtime.  This package is the small set of batch
operations that computation is made of — five plain functions
(:data:`KERNEL_OPS`) over lists of tuples, columnar :class:`PointSet`
storage or arrays — with one implementation per op unless numpy
measurably wins:

* ``cover_carve``, ``dominates_any`` and ``skyline_filter`` *are* their
  Python loops (:mod:`repro.kernels.reference`).  The carve is the one op
  on the FR* pull path — aFR's grid mode included, which is the same carve
  over observations rounded up onto the grid
  (:mod:`repro.geometry.cover`) — and is always a *delta* on the geometry
  layer's list-native :class:`~repro.geometry.antichain.ScoredAntichain`.
  Its operand decides its form: a sorted 2-D antichain (a staircase) is
  patched in place by a bisection and one slice
  (:func:`repro.kernels.reference.staircase_carve`, which the antichain
  calls itself, through :func:`_run` only while a sink is registered);
  any other cover gets kept row ids plus fresh points
  (:func:`carve_patch`) from the loop, which :func:`cover_carve` assembles
  into the whole cover.  Either way it is one counted ``cover_carve`` call.
* ``cover_corner_scores`` and ``cross_product_max`` — the bulk ops of
  PBRJ_FR^RR's seen columns — also have a numpy form
  (:mod:`repro.kernels.vectorized`, one broadcast per batch, 57–89× faster
  on bulk, slower on a handful of rows).  Each call takes the numpy form
  from the op's size threshold up: one integer comparison against the
  two-row table in :mod:`repro.kernels.dispatch`, the only place that
  knows the policy.

The two forms of an op are **bit-identical**: same partial scores (float
additions happen left-to-right in both), so every operator-level invariant
test doubles as a kernel-equivalence oracle.

Routing
-------
The threshold table alone decides the form of a two-form op, process-wide:
no query, engine or plan carries a kernel of its own.  The table is the
shipped one unless :func:`set_thresholds` or an explicit
:func:`calibrate_thresholds` call replaces it, for this process only;
nothing is timed, read or written that was not asked for.  Forcing one
form everywhere is a table too: ``{op: {"numpy": dispatch.NEVER}}`` runs
every call on the loop, ``{op: {"numpy": 0}}`` every call on numpy — how
the suite cross-checks the two forms.

Observability
-------------
:func:`observe` attaches a :class:`~repro.obs.metrics.MetricRegistry`;
afterwards every kernel call increments
``kernel_calls_total{kernel=…, fn=…}`` labelled with the form that
actually **ran** (so ``python -m repro trace`` shows the mix the table
chose), and a deterministic 1-in-16 sample of calls records wall-clock
in the ``bound_kernel_seconds{kernel=…}`` histogram.  Call counts are
exact; only the latency histogram is sampled.
"""

from __future__ import annotations

from time import perf_counter

from repro.kernels import dispatch as _dispatch
from repro.kernels import reference as _loops
from repro.kernels import vectorized as _numpy
from repro.kernels.dispatch import set_thresholds
from repro.kernels.pointset import PointSet
from repro.kernels.types import Point, as_point, ones, substitute

#: The kernel operations: every one has a loop, the two named in
#: :data:`repro.kernels.dispatch.SHIPPED` a numpy form as well.
KERNEL_OPS = (
    "dominates_any",
    "skyline_filter",
    "cover_corner_scores",
    "cross_product_max",
    "cover_carve",
)

#: Histogram boundaries for per-call kernel latencies (seconds).
KERNEL_SECONDS_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0,
)

#: The two forms of the bulk ops, under the names counters label them with.
_FORMS = {
    "python": {op: getattr(_loops, op) for op in _dispatch.SHIPPED},
    "numpy": {op: getattr(_numpy, op) for op in _dispatch.SHIPPED},
}


def dispatch_thresholds() -> dict[str, dict[str, int]]:
    """The live size thresholds, in the shape :func:`set_thresholds` takes
    (smallest batch the numpy form serves; ``dispatch.NEVER``: none)."""
    return {op: {"numpy": size} for op, size in _dispatch.table.items()}


def calibrate_thresholds(*, budget: float = 0.15) -> dict[str, dict[str, int]]:
    """Measure the two crossovers on this machine and install them, for
    this process only."""
    set_thresholds(_dispatch.calibrate(budget=budget))
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
    """Pre-resolved metric handles for one (form, fn) series."""

    __slots__ = ("counter", "hist", "tick")

    def __init__(self, counter, hist) -> None:
        self.counter = counter
        self.hist = hist
        self.tick = _SAMPLE - 1  # first call is sampled


class _InstrumentationSink:
    """Resolves and caches metric handles for kernel-call accounting.

    ``handles`` is keyed by the form that serves the call plus the op
    name, and read directly by :func:`_run` — the steady-state cost of an
    instrumented kernel call is one dict lookup plus a counter increment.
    """

    __slots__ = ("_metrics", "handles")

    def __init__(self, metrics) -> None:
        self._metrics = metrics
        self.handles: dict[tuple[str, str], _KernelHandle] = {}

    def handle(self, form: str, fn: str) -> _KernelHandle:
        """Create (first call of a series) the handle of ``(form, fn)``."""
        handle = self.handles[form, fn] = _KernelHandle(
            self._metrics.counter("kernel_calls_total", kernel=form, fn=fn),
            self._metrics.histogram("bound_kernel_seconds",
                                    buckets=KERNEL_SECONDS_BUCKETS,
                                    kernel=form),
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
    """Detach kernel instrumentation (a kernel call is a plain call again)."""
    global _sink
    _sink = None


def _run(form: str, fn: str, impl, *args):
    """Call ``impl`` — op ``fn`` in form ``form`` — counted if observed."""
    sink = _sink
    if sink is None:
        return impl(*args)
    handle = sink.handles.get((form, fn))
    if handle is None:
        handle = sink.handle(form, fn)
    handle.counter.inc()
    handle.tick += 1
    if handle.tick < _SAMPLE:
        return impl(*args)
    handle.tick = 0
    start = perf_counter()
    try:
        return impl(*args)
    finally:
        handle.hist.observe(perf_counter() - start)


def _sized(fn: str, size: int, *args):
    """Run a two-form op: on numpy from the op's threshold up, on the loop
    below it — the one routing decision there is."""
    form = "numpy" if size >= _dispatch.table[fn] else "python"
    return _run(form, fn, _FORMS[form][fn], *args)


# ----------------------------------------------------------------------
# The five ops
# ----------------------------------------------------------------------
def dominates_any(points, q) -> bool:
    """True if some row of ``points`` weakly dominates ``q``."""
    return _run("python", "dominates_any", _loops.dominates_any, points, q)


def skyline_filter(points) -> list[int]:
    """Indices (input order, first-occurrence dedup) of the skyline."""
    return _run("python", "skyline_filter", _loops.skyline_filter, points)


def cover_corner_scores(points, weights=None):
    """Per-row partial score: plain or weighted left-to-right sum."""
    return _sized("cover_corner_scores", len(points), points, weights)


def cross_product_max(left, right) -> float:
    """Max of ``l + r`` over the full cross product of two score lists
    (routed by the number of pairs)."""
    return _sized("cross_product_max", len(left) * len(right), left, right)


def carve_patch(cover, observed, *, skyline_mode: bool = False):
    """``FR::UpdateCR`` (``FR*`` with ``skyline_mode``) as a delta
    ``(keep, fresh)`` — surviving row ids, then the new points.  Counted
    as ``cover_carve``."""
    return _run(
        "python", "cover_carve", _loops.cover_carve, cover, observed,
        skyline_mode,
    )


def cover_carve(cover, observed, *, skyline_mode: bool = False):
    """``FR::UpdateCR`` (``FR*`` with ``skyline_mode``): new cover points."""
    keep, fresh = carve_patch(cover, observed, skyline_mode=skyline_mode)
    rows = _loops._rows(cover)
    return [rows[i] for i in keep] + fresh


__all__ = [
    "KERNEL_OPS",
    "Point",
    "PointSet",
    "as_point",
    "calibrate_thresholds",
    "carve_patch",
    "cover_carve",
    "cover_corner_scores",
    "cross_product_max",
    "dispatch_thresholds",
    "dominates_any",
    "observe",
    "ones",
    "set_thresholds",
    "skyline_filter",
    "substitute",
    "unobserve",
]
