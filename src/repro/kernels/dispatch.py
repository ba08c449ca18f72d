"""The routing policy: two size thresholds, and how to re-measure them.

Two kernel ops have a numpy form beside their loop
(:mod:`repro.kernels.vectorized`); numpy is 57–89× faster on bulk yet
*loses* on small batches, because a broadcast pays fixed per-call overhead
that a four-row loop never does.  :data:`table` holds, per op, the smallest
batch the numpy form serves — rows for ``cover_corner_scores``, ``|L|·|R|``
pairs for ``cross_product_max`` — and ``repro.kernels._sized`` is the one
function that reads it to route a call.  The other three ops are their
loops and have no row.

The table is process state and nothing else: it starts as :data:`SHIPPED`
(hand-set from a sweep over the probes below), :func:`set_thresholds`
layers explicit cells over the shipped ones, and :func:`calibrate` measures
this machine's crossovers when — and only when — it is called.  Nothing is
read from or written to disk.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from math import sqrt
from time import perf_counter

from repro.kernels import reference, vectorized
from repro.kernels.pointset import PointSet

#: Threshold sentinel: "the numpy form never serves this op".
NEVER = 1 << 30

#: op -> smallest batch its numpy form serves.
SHIPPED: dict[str, int] = {
    "cover_corner_scores": 12,
    "cross_product_max": 256,
}

#: The live table (rebound, never mutated, by :func:`set_thresholds`).
table: dict[str, int] = dict(SHIPPED)


def set_thresholds(
    overrides: Mapping[str, Mapping[str, int]] | None,
) -> None:
    """Install ``{op: {"numpy": min batch size}}`` over the shipped table.

    Overrides are partial — unnamed ops keep their shipped threshold, so
    ``{}`` (or ``None``) restores the shipped table — and take effect on
    the next call.  A cell that routes nothing is a :class:`ValueError`:
    an unknown op, an op that is its loop, a form other than ``numpy``, or
    a size that is not a non-negative integer.
    """
    global table
    merged = dict(SHIPPED)
    for op, cells in (overrides or {}).items():
        if op not in SHIPPED:
            raise ValueError(
                f"no threshold for kernel op {op!r}: the ops with a numpy "
                f"form are {tuple(SHIPPED)}"
            )
        for form, size in cells.items():
            if form != "numpy":
                raise ValueError(
                    f"threshold cell {op}.{form}: the only routed form is "
                    "'numpy'"
                )
            if isinstance(size, bool) or not isinstance(size, int) or size < 0:
                raise ValueError(
                    f"threshold cell {op}.numpy must be a non-negative "
                    f"integer, got {size!r}"
                )
            merged[op] = size
    table = merged


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
#: Doubling batch-size ladders; the quadratic op gets a capped ladder so
#: the loop's timing stays inside the budget.
_DEFAULT_LADDER = (4, 16, 64, 256, 1024)
_SIZE_LADDERS: dict[str, tuple[int, ...]] = {
    "cross_product_max": (16, 64, 256, 1024),
}


def _point_set(n: int, e: int = 3) -> PointSet:
    """A deterministic batch in ``(0, 1]^e``, wrapped the way the bulk
    callers feed the kernels.

    They hand over a columnar :class:`PointSet` whose array view already
    exists — timing on plain lists would charge the numpy form a per-call
    list→array conversion it never pays in production, skewing every
    crossover upward.
    """
    return PointSet(e, [
        tuple(((i * (j + 3) + 7 * j + 1) % 97 + 1) / 128.0 for j in range(e))
        for i in range(n)
    ])


def _side(n: int) -> int:
    return max(1, int(sqrt(n)))


#: op -> size -> positional argument tuple for one timed call, shaped like
#: the calls production makes: operands are array slices (prepared
#: operands) or score lists.
ARG_BUILDERS: dict[str, Callable[[int], tuple]] = {
    "cover_corner_scores": lambda n: (_point_set(n).array, (0.6, 0.3, 0.1)),
    "cross_product_max": lambda n: (
        [v / _side(n) for v in range(_side(n))],
        [v / _side(n) for v in range(_side(n))],
    ),
}


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


#: The numpy form must beat the loop by this margin to win a calibration
#: probe.  Near the crossover the two sit within timer noise of each other;
#: without a margin a single noisy probe flips every bulk call onto the
#: slower form.  Ties route to the loop — the safe choice.
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


def calibrate(*, budget: float = 0.15) -> dict[str, dict[str, int]]:
    """Measure this machine's loop→numpy crossover per two-form op (~100 ms).

    Ops not reached before the budget expires are left out (and so keep
    their shipped threshold when the result is installed).
    """
    deadline = perf_counter() + budget
    measured: dict[str, dict[str, int]] = {}
    for op in SHIPPED:
        if perf_counter() > deadline:
            break
        measured[op] = {"numpy": _crossover(
            getattr(reference, op), getattr(vectorized, op), ARG_BUILDERS[op],
            _SIZE_LADDERS.get(op, _DEFAULT_LADDER), deadline,
        )}
    return measured
