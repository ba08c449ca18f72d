"""The list-native scored antichain under covers and seen skylines.

FR* touches two small point sets per input on every pull: the skyline of
the seen score vectors (``SHR_i``, one insert per pull) and the cover of
the unseen ones (``CR_i``, one carve per closed group).  Both hold tens of
points, rarely more than 150 — sizes at which a loop over tuples beats any
array round trip.  :class:`ScoredAntichain` therefore keeps the points as
a plain list of tuples and, when the additive ``S`` hands it the weights of
its coordinates (:meth:`repro.core.scoring.ScoringFunction.row_weights`), a
parallel list of partial scores (:func:`partial`) and their maximum
:attr:`~ScoredAntichain.best` — which is all an FR* cover bound reads.  A
partial depends on its row alone, so carrying it across a mutation gives
the bits a rescan would.

**At e=2 an antichain is a staircase.**  Two incomparable points differ in
opposite directions on the two axes, so a 2-D antichain sorted ascending on
axis 0 is strictly descending on axis 1.  It is kept in that order, and
both mutations find their rows by bisection and replace one contiguous
slice (DESIGN.md §5): :meth:`~ScoredAntichain.insert`, the skyline insert,
evicts the run just before its insertion point; :meth:`~ScoredAntichain.carve`,
``FR*::UpdateCR``, replaces the run of rows ``⪰ y`` by at most two
projections, in place.  Both delegate to :func:`staircase_step`, FR*'s
per-pull side step, which the loop and the walk make as one call;
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
from collections.abc import Iterable, Sequence
from operator import ge

from repro import kernels
from repro.kernels.reference import cover_carve
from repro.kernels.types import Point, as_point, dimension_mismatch

NEG_INF = float("-inf")


def partial(row: Sequence[float], weights: Sequence[float]) -> float:
    """``row``'s partial score under ``weights``: the left-to-right weighted
    sum, :func:`repro.kernels.cover_corner_scores`'s arithmetic bit for bit."""
    total = 0.0
    for w, x in zip(weights, row):
        total += w * x
    return total


class ScoredAntichain:
    """A small set of score vectors with carried partial scores.

    ``points`` seeds the set and ``dimension`` fixes its arity (taken from
    the first seed row when omitted; an empty set must be told).  At
    ``dimension == 2`` the seed is sorted into the staircase and must be an
    antichain; elsewhere it is taken as given.  ``weights`` are the
    set's coordinates' weights under a weighted-sum ``S``
    (:meth:`~repro.core.scoring.ScoringFunction.row_weights`), which score
    a row by :func:`partial`; ``None`` for a scoring function that does not
    decompose — :attr:`partials` and :attr:`best` are then ``None`` and a
    bound falls back to
    :meth:`~repro.core.scoring.ScoringFunction.max_combination` over
    :attr:`points`.  ``skyline_mode=False`` is FR's literal unpruned cover:
    carved by the same loop without being an antichain, in list order at
    every dimension.
    """

    __slots__ = (
        "_points", "weights", "partials", "best", "dimension", "skyline_mode",
        "_staircase", "carves",
    )

    def __init__(
        self,
        points: Iterable[Sequence[float]] = (),
        *,
        weights: Sequence[float] | None = None,
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
        #: The coordinates' weights: a scored staircase's ``(w0, w1)``.
        self.weights = weights
        #: ``partials[i] == partial(points[i], weights)``, bit for bit.
        self.partials: list[float] | None = (
            None if weights is None else [partial(p, weights) for p in rows]
        )
        #: ``max(partials)``; ``-inf`` when empty.
        self.best: float | None = (
            None if weights is None else max(self.partials, default=NEG_INF)
        )
        #: Carves since the last booking.
        self.carves = 0

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
        if self._staircase:
            return staircase_step(self, point, None, None)
        points = self._points
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
        if self._staircase:
            staircase_step(None, None, self, observed)
        else:
            self._patch(*cover_carve(self._points, observed, self.skyline_mode))
        self.carves += 1

    def _patch(self, keep: list[int], fresh: list[Point]) -> None:
        """Keep the rows ``keep`` (ascending ids) with their partials, then
        add ``fresh``, scored.  Keeping everything and adding nothing
        changes nothing."""
        points = self._points
        if len(keep) == len(points) and not fresh:
            return
        self._points = [points[i] for i in keep] + fresh
        weights = self.weights
        if weights is not None:
            partials = self.partials
            self.partials = [partials[i] for i in keep] + [
                partial(p, weights) for p in fresh
            ]
            self.best = max(self.partials, default=NEG_INF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._points!r})"


def staircase_step(seen, point, cover, group) -> bool:
    """FR*'s e=2 side step in one call: insert ``point`` into the staircase
    ``seen``; if its pull closed ``group``, ``cover.cut(group)`` — carved
    here, counted and fitted while ``cover`` is exact and in budget, else by
    ``cut`` itself.  True iff ``seen`` changed.  ``seen=None``: a bare carve
    (:meth:`ScoredAntichain.carve`).  Each mutation is a bisection and one
    slice (staircase lemma, DESIGN.md §5); a fresh partial is ``w0*u +
    w1*v`` over the set's :attr:`~ScoredAntichain.weights`.
    """
    moved = False
    if seen is not None:
        points = seen._points
        a, b = point
        # Row i is the first with axis 0 ≥ a, so the highest of them.
        i = lo = bisect_left(points, (a,))
        n = len(points)
        if i == n or points[i][1] < b:
            if i < n and points[i][0] == a:
                i += 1
            # The rows ``point`` beats: the run just before i (and row i
            # itself on an equal a).
            while lo and points[lo - 1][1] <= b:
                lo -= 1
            points[lo:i] = (point,)
            if seen.weights is not None:
                w0, w1 = seen.weights
                seen.partials[lo:i] = (score := w0 * a + w1 * b,)
                # An evicted row never outscores the point that beat it.
                if score > seen.best:
                    seen.best = score
            moved = True
        if not group or not cover._points:
            return moved
        if cover.resolution is not None or len(cover._points) > cover.max_size:
            cover.cut(group)  # onto the grid first; a frozen cover stays
            return moved
        cover.carves += 1
    points, partials, best = cover._points, cover.partials, cover.best
    w0, w1 = cover.weights or (0.0, 0.0)  # an unscored set keeps no partials
    for a, b in group:
        # The rows ⪰ (a, b): the run [lo, hi) from the first row with axis
        # 0 ≥ a for as long as axis 1 stays ≥ b.
        lo = bisect_left(points, (a,))
        n = len(points)
        if lo == n:
            continue
        top = points[lo][1]
        if top < b:
            continue
        hi = lo + 1
        while hi < n and points[hi][1] >= b:
            hi += 1
        right = points[hi - 1][0]
        # Their projections' skyline: (a, top) and (right, b), less the one
        # the other contains on a tie — (right, b) wins top == b, (a, top)
        # right == a alone — and less one with a zero coordinate.
        fresh, scores = [], []
        if top != b and a > 0.0 and top > 0.0:
            fresh.append((a, top))
            scores.append(w0 * a + w1 * top)
        if (right != a or top == b) and right > 0.0 and b > 0.0:
            fresh.append((right, b))
            scores.append(w0 * right + w1 * b)
        points[lo:hi] = fresh
        if partials is not None:
            # A projection never outscores its row under a monotone S, so
            # ``best`` is rescanned only when a removed row held it.
            held = best in partials[lo:hi]
            partials[lo:hi] = scores
            if held:
                best = max(partials, default=NEG_INF)
    cover.best = best
    if seen is not None and len(points) > cover.max_size:
        cover._fit()
    return moved


def book_carves(antichains) -> None:
    """Hand the carves ``antichains`` counted since the last call to the
    kernel sink, if one is registered, as one ``cover_carve`` count."""
    calls = 0
    for antichain in antichains:
        calls += antichain.carves
        antichain.carves = 0
    sink = kernels._sink
    if calls and sink is not None:
        sink.counter("python", "cover_carve").inc(calls)
