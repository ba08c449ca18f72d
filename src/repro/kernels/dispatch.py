"""Size-aware per-call kernel dispatch with calibrated crossovers.

BENCH_kernels.json established that no single backend wins everywhere:
numpy is 59–73× faster on bulk ops (``cover_corner_scores``, bound
refresh) yet *loses* to the pure-Python loops on small batches
(``dominates_any`` 0.03×, ``skyline_filter`` 0.29×, ``cover_carve``
0.78×), because a broadcast pays fixed per-call overhead that a
four-point early-exit loop never does.  This module routes **each call**
by batch size instead of pinning one backend per process.

Route tables
------------
Every op owns a route table — ``((min_size, ResolvedOp), …)`` sorted by
descending ``min_size`` — plus a *sizer* that extracts the batch size
from the call's arguments (row count for most ops, ``|L|·|R|`` for
``cross_product_max``, ``|cover| + |observed|`` for ``cover_carve``).
Selection scans the table for the first entry whose ``min_size`` fits;
the pure-Python reference tier anchors the table at size 0, so selection
cannot fail.  The scan is one or two comparisons.

Thresholds
----------
Per-op crossover sizes resolve in priority order:

1. an explicit :func:`set_thresholds` call
   (``ReproConfig.kernel_thresholds`` ends here),
2. per-machine calibration: a ~100 ms one-shot measurement à la
   ``planner/cost.py:measure()`` — synthetic batches per op, doubling
   size ladder, crossover at the geometric midpoint of the bracketing
   sizes — memoised in ``~/.cache/repro/kernel_thresholds.json``
   (``$XDG_CACHE_HOME``-aware, invalidated when the Python version or
   the backend set changes),
3. library defaults (hand-set from a sweep over the probes), for every cell
   the levels above leave unnamed.

Threshold values are *minimum batch sizes*: ``{"dominates_any":
{"numpy": 512}}`` means "use numpy for dominates_any once the batch has
≥ 512 rows".  The sentinel :data:`NEVER` disables a backend for an op.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable, Mapping
from functools import partial
from math import sqrt
from pathlib import Path
from time import perf_counter

from repro.kernels.registry import BACKEND_TIER, KernelRegistry, ResolvedOp

#: Cache schema version — bump to invalidate every on-disk cache.  2: the
#: ``cover_carve`` probe hands the tiers a list of tuples; a crossover
#: measured on a columnar operand misroutes every cover above it.
SCHEMA_VERSION = 2

#: Threshold sentinel: "never route this op to this backend".
NEVER = 1 << 30

#: Hand-set crossover defaults (minimum batch size per backend), read off
#: a fine-ladder sweep of both tiers over the :data:`ARG_BUILDERS` probes:
#: loop ops with early exits keep the reference tier far longer than
#: streaming ops (a ``dominates_any`` hit exits within a few rows at any
#: size; 512 caps what the occasional full-scan miss can cost).
#: ``skyline_filter`` and ``antichain`` have no row: they exist at the
#: reference tier only (a per-insertion broadcast never amortized for the
#: incremental skyline, nor the dedup-then-pairwise shape for the
#: antichain), so there is nothing to route.
DEFAULT_THRESHOLDS: dict[str, dict[str, int]] = {
    "dominates_any": {"numpy": 512},
    "cover_corner_scores": {"numpy": 12},
    "cross_product_max": {"numpy": 256},
    # A cover reaches the carve as a list of tuples.  The loops cost ~0.08 µs
    # a row on it; numpy pays ~0.2 µs a row for the list→array conversion
    # alone, plus ~85 µs fixed (np.unique): 3x slower at 2 048 rows and never
    # ahead.  Calibration still probes the op; a pin still runs it.
    "cover_carve": {"numpy": NEVER},
    "grid_cell_assign": {"numpy": 8},
    "grid_carve": {"numpy": 64},
}

#: Tie-break rank when two tiers share a crossover size (prefer the
#: cheaper-per-call tier).
_TIER_RANK = {"reference": 0, "vectorized": 1}


# ----------------------------------------------------------------------
# Sizers — batch size from a call's positional arguments
# ----------------------------------------------------------------------
def _length(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _first_len(args) -> int:
    return _length(args[0])


def _cross_size(args) -> int:
    return _length(args[0]) * _length(args[1])


def _carve_size(args) -> int:
    return _length(args[0]) + _length(args[1])


#: op -> sizer; anything absent sizes by its first argument's length.
SIZERS: dict[str, Callable] = {
    "cross_product_max": _cross_size,
    "cover_carve": _carve_size,
}


# ----------------------------------------------------------------------
# Threshold resolution
# ----------------------------------------------------------------------
_installed: dict[str, dict[str, int]] | None = None
_resolved: dict[str, dict[str, int]] | None = None
#: Bumped whenever thresholds change; dispatchers rebuild lazily.
_EPOCH = 0


def _merge(
    overrides: Mapping[str, Mapping[str, int]],
) -> dict[str, dict[str, int]]:
    """Overrides layered over the defaults.

    Unknown ops and backends are ignored, so a file written when the
    package had more of either still loads.
    """
    merged = {op: dict(table) for op, table in DEFAULT_THRESHOLDS.items()}
    for op, table in overrides.items():
        if op not in merged or not isinstance(table, Mapping):
            continue
        for backend, value in table.items():
            if backend in BACKEND_TIER:
                merged[op][backend] = int(value)
    return merged


def load_thresholds_file(path: str | os.PathLike) -> dict[str, dict[str, int]]:
    """Parse a threshold JSON file (bare mapping or ``{"thresholds": …}``)."""
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, Mapping) and "thresholds" in payload:
        payload = payload["thresholds"]
    if not isinstance(payload, Mapping):
        raise ValueError(f"threshold file {path!s} is not a mapping")
    return _merge(payload)


def _cache_path() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro" / "kernel_thresholds.json"


def _cache_meta(registry: KernelRegistry) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "backends": list(registry.backend_names()),
    }


def _load_cache(registry: KernelRegistry):
    path = _cache_path()
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, Mapping):
        return None
    if payload.get("meta") != _cache_meta(registry):
        return None  # stale: interpreter or backend set changed
    table = payload.get("thresholds")
    return _merge(table) if isinstance(table, Mapping) else None


def _store_cache(
    registry: KernelRegistry, measured: Mapping[str, Mapping[str, int]]
) -> None:
    path = _cache_path()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": _cache_meta(registry),
            "thresholds": {op: dict(t) for op, t in measured.items()},
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
    except OSError:
        pass  # read-only HOME: calibration still applies for this process


def set_thresholds(
    overrides: Mapping[str, Mapping[str, int]] | None,
) -> None:
    """Install explicit crossover overrides (``None`` → auto-resolution).

    Overrides are partial: the named ``(op, backend)`` cells are layered
    over the shipped defaults, so ``set_thresholds({})`` pins the shipped
    table and skips the cache and calibration.  Active dispatchers pick
    the change up on their next call.
    """
    global _installed, _resolved, _EPOCH
    _installed = None if overrides is None else _merge(overrides)
    _resolved = None
    _EPOCH += 1


def reset() -> None:
    """Drop every resolved/installed threshold (tests)."""
    global _installed, _resolved, _EPOCH
    _installed = None
    _resolved = None
    _EPOCH += 1


def thresholds(registry: KernelRegistry) -> dict[str, dict[str, int]]:
    """The active per-op crossover table (resolved once, then cached)."""
    global _resolved
    if _installed is not None:
        return _installed
    if _resolved is None:
        _resolved = _resolve(registry)
    return _resolved


def _resolve(registry: KernelRegistry) -> dict[str, dict[str, int]]:
    cached = _load_cache(registry)
    if cached is not None:
        return cached
    try:
        measured = calibrate(registry)
    except Exception:
        return _merge({})
    _store_cache(registry, measured)
    return _merge(measured)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
#: Doubling batch-size ladders; quadratic ops get capped ladders so the
#: reference timing stays inside the budget.
_DEFAULT_LADDER = (4, 16, 64, 256, 1024)
_SIZE_LADDERS: dict[str, tuple[int, ...]] = {
    "cross_product_max": (16, 64, 256, 1024),
    "cover_carve": (8, 32, 128, 512),
    "grid_carve": (8, 32, 128, 512),
}


def synthetic_points(n: int, e: int = 3) -> list[tuple[float, ...]]:
    """Deterministic point batch in ``(0, 1]^e`` (shared with the bench)."""
    return [
        tuple(((i * (j + 3) + 7 * j + 1) % 97 + 1) / 128.0 for j in range(e))
        for i in range(n)
    ]


def _point_set(n: int, e: int = 3):
    """Points wrapped the way the geometry layer feeds the kernels.

    The hot path hands kernels a columnar :class:`PointSet` whose array
    view is built once and cached — timing on plain lists would charge
    the vectorized tier a per-call list→array conversion it never pays
    in production, skewing every crossover upward.
    """
    from repro.kernels.pointset import PointSet

    return PointSet(e, synthetic_points(n, e))


def _side(n: int) -> int:
    return max(1, int(sqrt(n)))


def _staircase(n: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """An ``n``-cell antichain shaped like a cover — a staircase in the
    first two coordinates, the third free — and a step that only its two
    middle cells dominate: a group close as production sees it."""
    cells = [(i, n - 1 - i, (i * 7) % 11) for i in range(n)]
    return cells, (n // 2, max(n - n // 2 - 2, 0), 0)


def _carve_args(n: int) -> tuple:
    """The cover as the geometry layer holds it — a list of tuples — so the
    numpy tier is charged the list→array conversion it pays in production."""
    cells, step = _staircase(max(n - 1, 1))
    scale = (len(cells) + 1.0, len(cells) + 1.0, 12.0)
    cover = [tuple((c + 1) / s for c, s in zip(cell, scale)) for cell in cells]
    return cover, [tuple((c + 0.5) / s for c, s in zip(step, scale))]


def _grid_carve_args(n: int) -> tuple:
    cells, step = _staircase(n)
    resolution = 1 << max(n, 16).bit_length()  # a power of two: c / r is exact
    return cells, tuple(c / resolution for c in step), resolution


#: op -> size -> positional argument tuple for one timed call, shaped like
#: the calls production makes: operands are PointSets or array slices
#: (prepared operands), a cover is the geometry layer's list of tuples, the
#: dominance target is dominated by an early row (as under decreasing-S̄
#: access), a carve removes two points of an antichain.  Worst cases nothing issues (a target nothing dominates,
#: a vector gutting a non-antichain set) miscalibrate: 3x slower FRPA once.
ARG_BUILDERS: dict[str, Callable[[int], tuple]] = {
    "dominates_any": lambda n: (
        _point_set(n), tuple(v / 2 for v in synthetic_points(n)[n // 8]),
    ),
    "cover_corner_scores": lambda n: (_point_set(n).array, (0.6, 0.3, 0.1)),
    "cross_product_max": lambda n: (
        [v / _side(n) for v in range(_side(n))],
        [v / _side(n) for v in range(_side(n))],
    ),
    "cover_carve": _carve_args,
    "grid_cell_assign": lambda n: (_point_set(n), 8),
    "grid_carve": _grid_carve_args,
}

#: Keyword arguments production passes with those positional ones.
PROBE_KWARGS: dict[str, dict] = {"cover_carve": {"skyline_mode": True}}


def _time_call(impl: Callable, args: tuple, reps: int) -> float:
    """Best-of-2 mean seconds per call over ``reps`` back-to-back calls."""
    best = float("inf")
    for _ in range(2):
        started = perf_counter()
        for _ in range(reps):
            impl(*args)
        elapsed = (perf_counter() - started) / reps
        if elapsed < best:
            best = elapsed
    return best


def _reps_for(size: int) -> int:
    # Loop-and-divide: small batches finish in ~1 µs, far below timer
    # noise for a single call; mid-size batches still get a few reps —
    # a single ~200 µs sample is noisy enough to flip a crossover.
    return max(1, min(32, 2048 // max(size, 1)))


#: A candidate tier must beat the reference by this margin to win a
#: calibration probe.  Near the crossover the two tiers sit within
#: timer noise of each other; without a margin a single noisy probe
#: flips every bulk call onto the slower tier.  Ties route to the
#: reference — the safe choice.
_WIN_MARGIN = 0.92


def _fast_wins(base, fast, builder, size: int) -> bool:
    args = builder(size)
    reps = _reps_for(size)
    return _time_call(fast, args, reps) < _WIN_MARGIN * _time_call(
        base, args, reps
    )


def _refine(base, fast, builder, lo: int, hi: int, deadline: float) -> int:
    """Shrink a ``(lo, hi]`` win bracket with up to two bisection probes.

    The doubling ladder leaves a 4× bracket; returning its raw midpoint
    can misroute a batch sitting exactly there by ~20 %.  Two geometric
    bisections narrow the bracket enough that the midpoint error stays
    inside the dispatch tolerance.
    """
    for _ in range(2):
        mid = int(sqrt(lo * hi))
        if mid <= lo or mid >= hi or perf_counter() > deadline:
            break
        if _fast_wins(base, fast, builder, mid):
            hi = mid
        else:
            lo = mid
    return max(1, int(sqrt(lo * hi)))


def _crossover(
    base: Callable,
    fast: Callable,
    builder: Callable[[int], tuple],
    sizes: tuple[int, ...],
    deadline: float,
) -> int:
    """Smallest batch size where ``fast`` beats ``base``.

    Walks the doubling ladder to bracket the crossover, then bisects the
    bracket.  Returns :data:`NEVER` when ``fast`` never wins inside the
    ladder.
    """
    previous = 0
    for size in sizes:
        if perf_counter() > deadline:
            return NEVER if previous == 0 else previous
        if _fast_wins(base, fast, builder, size):
            if previous == 0:
                return max(1, size // 2)
            return _refine(base, fast, builder, previous, size, deadline)
        previous = size
    return NEVER


def calibrate(
    registry: KernelRegistry, *, budget: float = 0.15
) -> dict[str, dict[str, int]]:
    """Measure per-op reference→numpy crossover sizes (~100 ms).

    Ops not reached before the budget expires keep their defaults; an op
    with one implementation has no crossover and is not probed.
    """
    deadline = perf_counter() + budget
    measured: dict[str, dict[str, int]] = {}
    for op in registry.ops:
        if perf_counter() > deadline:
            break
        impls = {
            tier: partial(impl, **PROBE_KWARGS.get(op, {}))
            for tier, impl in registry.implementations(op).items()
        }
        if "vectorized" not in impls:
            continue
        measured[op] = {"numpy": _crossover(
            impls["reference"], impls["vectorized"], ARG_BUILDERS[op],
            _SIZE_LADDERS.get(op, _DEFAULT_LADDER), deadline,
        )}
    return measured


# ----------------------------------------------------------------------
# Dispatchers
# ----------------------------------------------------------------------
class PinnedDispatcher:
    """Every op resolved once at a single tier (``--kernel python|numpy``);
    ``select`` is one dict lookup."""

    __slots__ = ("name", "table")

    def __init__(self, registry: KernelRegistry, backend: str) -> None:
        self.name = backend
        self.table = registry.resolve_all(BACKEND_TIER[backend])

    def select(self, fn: str, args: tuple) -> ResolvedOp:
        return self.table[fn]


class AutoDispatcher:
    """Routes each call by batch size against the per-op crossover table.

    Route tables are built lazily (the first selection triggers threshold
    resolution, possibly calibration) and rebuilt whenever
    :func:`set_thresholds`/:func:`reset` bump the epoch — the steady-state
    cost per call is one sizer call plus a 1–2 entry scan.
    """

    __slots__ = ("name", "registry", "_routes", "_epoch")

    def __init__(self, registry: KernelRegistry) -> None:
        self.name = "auto"
        self.registry = registry
        self._routes: dict[str, tuple] | None = None
        self._epoch = -1

    def _rebuild(self) -> None:
        table = thresholds(self.registry)
        routes: dict[str, tuple] = {}
        for op in self.registry.ops:
            entries: list[tuple[int, int, ResolvedOp]] = [
                (0, 0, self.registry.resolve(op, "reference"))
            ]
            for backend, min_size in table.get(op, {}).items():
                tier = BACKEND_TIER[backend]
                if min_size >= NEVER:
                    continue
                entries.append(
                    (int(min_size), _TIER_RANK[tier],
                     self.registry.resolve(op, tier))
                )
            entries.sort()  # ascending size; preferred tier last on ties
            entries.reverse()
            routes[op] = (
                SIZERS.get(op, _first_len),
                tuple((size, resolved) for size, _, resolved in entries),
            )
        self._routes = routes
        self._epoch = _EPOCH

    def select(self, fn: str, args: tuple) -> ResolvedOp:
        if self._epoch != _EPOCH:
            self._rebuild()
        sizer, entries = self._routes[fn]
        n = sizer(args)
        for min_size, resolved in entries:
            if n >= min_size:
                return resolved
        return entries[-1][1]  # pragma: no cover - size-0 anchor always hits

    def routes_snapshot(self) -> dict[str, list[tuple[int, str]]]:
        """Human-readable route table: op -> [(min_size, backend), …]."""
        if self._epoch != _EPOCH:
            self._rebuild()
        return {
            op: [(size, resolved.used) for size, resolved in entries]
            for op, (_, entries) in self._routes.items()
        }
