"""Skyline computation and incremental skyline maintenance.

A *skyline* of a point set ``X`` is the minimal subset ``C ⊆ X`` that covers
``X`` (every ``x ∈ X`` is weakly dominated by some ``c ∈ C``) such that no
skyline point strictly dominates another.  The FR* bound (Section 4.2.1)
maintains the skyline ``SHR_i`` of the seen score vectors incrementally, and
relies on the "early freeze" property: because inputs arrive in decreasing
score-bound order, dominating points tend to arrive first and the skyline
stabilizes quickly.

The data plane is list-native: :class:`IncrementalSkyline` is a
:class:`~repro.geometry.antichain.ScoredAntichain` — a list of tuples, one
bisection per insertion at e=2 (a sorted staircase) and one loop elsewhere,
no kernel call.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro import kernels
from repro.geometry.antichain import ScoredAntichain
from repro.geometry.dominance import strictly_dominates
from repro.kernels.types import Point, as_point


def skyline(points: Iterable[Sequence[float]]) -> list[Point]:
    """Return the skyline (maxima under ⪯) of ``points``.

    Duplicates collapse to a single representative (the first occurrence).
    The result preserves the input order of the surviving points.
    Complexity is O(n * s) where ``s`` is the skyline size, which is what
    the paper's structures need (s stays small in practice).
    """
    normalized = [as_point(p) for p in points]
    return [normalized[i] for i in kernels.skyline_filter(normalized)]


def is_skyline(points: Iterable[Sequence[float]]) -> bool:
    """Check that no point in ``points`` strictly dominates another."""
    normalized = [as_point(p) for p in points]
    return not any(
        strictly_dominates(p, q) for p in normalized for q in normalized
    )


class IncrementalSkyline(ScoredAntichain):
    """Maintains the skyline of a growing point set of one ``dimension``
    (taken from the first seed point when omitted; an empty skyline must be
    told, so the first vector to arrive is checked like every other).

    ``add`` runs in time logarithmic in the current skyline size plus the
    rows it evicts at e=2, linear elsewhere.  With ``weights=`` it carries
    the points' partial scores and their maximum, :attr:`best`.
    """

    __slots__ = ()

    def __init__(
        self,
        points: Iterable[Sequence[float]] = (),
        *,
        weights=None,
        dimension: int | None = None,
    ) -> None:
        points = list(points)
        if dimension is None and points:
            dimension = len(points[0])
        super().__init__(weights=weights, dimension=dimension)
        for point in points:
            self.add(point)
