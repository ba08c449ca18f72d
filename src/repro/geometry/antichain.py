"""The list-native scored antichain under covers and seen skylines.

FR* touches two small point sets per input on every pull: the skyline of
the seen score vectors (``SHR_i``, one insert per pull) and the cover of
the unseen ones (``CR_i``, one carve per closed group).  Both hold tens of
points, rarely more than 150 — sizes at which a loop over tuples beats any
array round trip.  :class:`ScoredAntichain` therefore keeps the points as
a plain list of tuples and, when the additive ``S`` hands it a row scorer
(:meth:`repro.core.scoring.ScoringFunction.row_scorer`), a parallel list
of partial scores and their maximum :attr:`~ScoredAntichain.best` — which
is all an FR* cover bound reads.  A partial depends on its row alone, so
carrying it across a mutation gives the bits a rescan would.

**At e=2 an antichain is a staircase.**  Two incomparable points differ in
opposite directions on the two axes, so a 2-D antichain sorted ascending on
axis 0 is strictly descending on axis 1.  It is kept in that order, and
both mutations find their rows by bisection and replace one contiguous
slice (DESIGN.md §5): :meth:`~ScoredAntichain.insert`, the skyline insert,
evicts the run just before its insertion point; :meth:`~ScoredAntichain.carve`,
``FR*::UpdateCR``, replaces the run of rows ``⪰ y`` by at most two
projections, in place.  Each is one call on the lists — FR*'s per-pull step
makes exactly these two (:meth:`repro.core.frstar_bound.FRStarBound._step`);
:meth:`~ScoredAntichain.add` is the insert behind the public checks.  The
form is a function of ``(dimension == 2, skyline_mode)`` alone, fixed at
construction.  Every other dimension — and
FR's literal unpruned cover, which is no antichain — has no staircase and
keeps the loops: the insert scans the list, the carve is one
:func:`~repro.kernels.reference.cover_carve` whose delta (kept rows,
ascending, with their partials; then the fresh rows, scored) is applied in
place.  The set counts its carves; its bound books them (:func:`book_carves`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from operator import ge
from time import perf_counter

from repro import kernels
from repro.kernels.reference import cover_carve, staircase_carve
from repro.kernels.types import Point, as_point, dimension_mismatch

NEG_INF = float("-inf")


class ScoredAntichain:
    """A small set of score vectors with carried partial scores.

    ``points`` seeds the set and ``dimension`` fixes its arity (taken from
    the first seed row when omitted; an empty set must be told).  At
    ``dimension == 2`` the seed is sorted into the staircase and must be an
    antichain; elsewhere it is taken as given.  ``score`` maps one row to
    its partial score, ``None`` for a scoring function that does not
    decompose — :attr:`partials` and :attr:`best` are then ``None`` and a
    bound falls back to
    :meth:`~repro.core.scoring.ScoringFunction.max_combination` over
    :attr:`points`.  ``skyline_mode=False`` is FR's literal unpruned cover:
    carved by the same loop without being an antichain, in list order at
    every dimension.
    """

    __slots__ = (
        "_points", "_score", "partials", "best", "dimension", "skyline_mode",
        "_staircase", "carves", "timed",
    )

    def __init__(
        self,
        points: Iterable[Sequence[float]] = (),
        *,
        score: Callable[[Point], float] | None = None,
        dimension: int | None = None,
        skyline_mode: bool = True,
    ) -> None:
        rows = [as_point(p) for p in points]
        if dimension is None:
            if not rows:
                raise ValueError("an empty antichain needs its dimension")
            dimension = len(rows[0])
        for row in rows:
            if len(row) != dimension:
                raise dimension_mismatch("antichain", dimension, len(row))
        self.dimension = dimension
        self.skyline_mode = skyline_mode
        self._staircase = dimension == 2 and skyline_mode
        if self._staircase:
            rows.sort()
            for p, q in zip(rows, rows[1:]):
                if not (p[0] < q[0] and p[1] > q[1]):
                    raise ValueError(
                        f"seed rows {p} and {q} are comparable: not an antichain"
                    )
        self._points: list[Point] = rows
        self._score = score
        #: ``partials[i] == score(points[i])``, bit for bit.
        self.partials: list[float] | None = (
            None if score is None else [score(p) for p in rows]
        )
        #: ``max(partials)``; ``-inf`` when empty.
        self.best: float | None = (
            None if score is None else max(self.partials, default=NEG_INF)
        )
        #: Carves since the last booking, and the first one's seconds.
        self.carves, self.timed = 0, None

    @property
    def points(self) -> list[Point]:
        """The current points (a copy; safe to mutate).  A 2-D antichain
        lists them ascending on axis 0 — strictly descending on axis 1."""
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __contains__(self, raw: Sequence[float]) -> bool:
        return as_point(raw) in self._points

    def covers(self, raw: Sequence[float]) -> bool:
        """True if some point weakly dominates ``raw``."""
        return bool(self._points) and kernels.dominates_any(
            self._points, as_point(raw)
        )

    def add(self, raw: Sequence[float]) -> bool:
        """Skyline insert of any sequence of this set's arity; True iff
        the set changed (:meth:`insert` after the checks)."""
        point = as_point(raw)
        if len(point) != self.dimension:
            raise dimension_mismatch("skyline", self.dimension, len(point))
        return self.insert(point)

    def insert(self, point: Point) -> bool:
        """Skyline insert of a canonical tuple of this set's arity — FR*'s
        per-pull step, unchecked; True iff the set changed.

        Under decreasing-``S̄`` access a dominating point arrives early
        (the paper's early freeze), so the common case is one comparison
        after the bisection — or ends at the first few rows of the scan.
        """
        points = self._points
        if self._staircase:
            a, b = point
            # Row i is the first with axis 0 ≥ a, so the highest of them.
            i = lo = bisect_left(points, (a,))
            if i < len(points):
                if points[i][1] >= b:
                    return False
                if points[i][0] == a:
                    i += 1
            # The rows ``point`` beats: the run just before i (and row i
            # itself on an equal a).
            while lo and points[lo - 1][1] <= b:
                lo -= 1
            points[lo:i] = (point,)
            if self._score is not None:
                self.partials[lo:i] = (partial := self._score(point),)
                # An evicted row never outscores the point that beat it.
                if partial > self.best:
                    self.best = partial
            return True
        for p in points:
            if all(map(ge, p, point)):
                return False
        # Nothing equals ``point`` here, so the rows it ⪰ it strictly beats.
        self._patch(
            [i for i, p in enumerate(points) if not all(map(ge, point, p))],
            [point],
        )
        return True

    def carve(self, observed: list[Point]) -> None:
        """Carve the regions dominating each observed vector (canonical
        tuples of this set's dimension) out of the set — ``FR*::UpdateCR``;
        ``FR::UpdateCR`` on a set built with ``skyline_mode=False``.  One
        ``cover_carve`` kernel call either way, counted for
        :func:`book_carves`."""
        started = perf_counter() if self.timed is None else None
        if self._staircase:
            self.best = staircase_carve(
                self._points, self.partials, self.best, observed, self._score)
        else:
            self._patch(*cover_carve(self._points, observed, self.skyline_mode))
        if started is not None:
            self.timed = perf_counter() - started
        self.carves += 1

    def _patch(self, keep: list[int], fresh: list[Point]) -> None:
        """Keep the rows ``keep`` (ascending ids) with their partials, then
        add ``fresh``, scored.  Keeping everything and adding nothing
        changes nothing."""
        points = self._points
        if len(keep) == len(points) and not fresh:
            return
        self._points = [points[i] for i in keep] + fresh
        if self._score is not None:
            partials = self.partials
            self.partials = [partials[i] for i in keep] + [
                self._score(p) for p in fresh
            ]
            self.best = max(self.partials, default=NEG_INF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._points!r})"


def book_carves(antichains) -> None:
    """Hand the carves ``antichains`` counted since the last call to the
    kernel sink, if one is registered: one ``cover_carve`` count, and the
    first one's seconds as one ``bound_kernel_seconds`` sample."""
    calls, seconds = 0, None
    for antichain in antichains:
        if antichain.carves:
            calls += antichain.carves
            seconds = antichain.timed if seconds is None else seconds
            antichain.carves, antichain.timed = 0, None
    sink = kernels._sink
    if calls and sink is not None:
        handle = sink.handles.get(("python", "cover_carve")) or sink.handle(
            "python", "cover_carve")
        handle.counter.inc(calls)
        handle.hist.observe(seconds)
