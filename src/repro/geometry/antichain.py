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

Its two mutations: :meth:`~ScoredAntichain.add`, the skyline insert, is a
loop with no kernel call; :meth:`~ScoredAntichain.carve`, ``FR*::UpdateCR``,
is one :func:`repro.kernels.carve_patch` call on the list itself whose
delta is applied in place: kept rows first, ascending, with their partials,
then the fresh rows, scored.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from operator import ge

from repro import kernels
from repro.kernels.types import Point, as_point, dimension_mismatch

NEG_INF = float("-inf")


class ScoredAntichain:
    """A small set of score vectors with carried partial scores.

    ``points`` seeds the set (taken as given: the caller vouches for the
    antichain); ``score`` maps one row to its partial score, ``None`` for
    a scoring function that does not decompose — :attr:`partials` and
    :attr:`best` are then ``None`` and a bound falls back to
    :meth:`~repro.core.scoring.ScoringFunction.max_combination` over
    :attr:`points`.  A cover kept with ``skyline_mode=False`` (FR's literal
    unpruned pseudo-code) is carved the same way without being an antichain.
    """

    __slots__ = ("_points", "_score", "partials", "best")

    def __init__(
        self,
        points: Iterable[Sequence[float]] = (),
        *,
        score: Callable[[Point], float] | None = None,
    ) -> None:
        self._points: list[Point] = [as_point(p) for p in points]
        self._score = score
        #: ``partials[i] == score(points[i])``, bit for bit.
        self.partials: list[float] | None = (
            None if score is None else [score(p) for p in self._points]
        )
        #: ``max(partials)``; ``-inf`` when empty.
        self.best: float | None = (
            None if score is None else max(self.partials, default=NEG_INF)
        )

    @property
    def points(self) -> list[Point]:
        """The current points (a copy; safe to mutate)."""
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
        """Skyline insert; True iff the set changed.

        Under decreasing-``S̄`` access a dominating point arrives early
        (the paper's early freeze), so the common case ends at the first
        few rows of the first loop.
        """
        point = as_point(raw)
        points = self._points
        if points and len(point) != len(points[0]):
            raise dimension_mismatch("skyline", len(points[0]), len(point))
        for p in points:
            if all(map(ge, p, point)):
                return False
        # Nothing equals ``point`` here, so the rows it ⪰ it strictly beats.
        self._patch(
            [i for i, p in enumerate(points) if not all(map(ge, point, p))],
            [point],
        )
        return True

    def carve(self, observed: list[Point], *, skyline_mode: bool = True) -> None:
        """Carve the regions dominating each observed vector out of the set
        (``FR::UpdateCR``; ``FR*::UpdateCR`` with ``skyline_mode``)."""
        self._patch(*kernels.carve_patch(
            self._points, observed, skyline_mode=skyline_mode
        ))

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
