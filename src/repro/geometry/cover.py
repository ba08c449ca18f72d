"""Exact feasible-region covers (functions ``FR::UpdateCR`` / ``FR*::UpdateCR``).

A *cover* for a point set ``X`` is a set of points ``C`` such that every
``x ∈ X`` is weakly dominated by some ``c ∈ C``.  The FR bound maintains a
cover ``CR_i`` of the score vectors of the **unseen** tuples of input ``R_i``.
Whenever a group of tuples with equal score bound finishes, each of its score
vectors ``y`` certifies that no unseen vector weakly dominates ``y`` — so the
region ``{x : x ⪰ y}`` is carved out of the feasible region (Figure 4(b)).

``update_cover`` implements the carving exactly as in the paper's pseudo-code:
cover points dominating ``y`` are removed and replaced by their projections
``s[i ↦ y_i]``, clipped to ``(0, 1]^e`` (projections with a zero coordinate
cover nothing and are dropped).  It is a deliberately loop-based oracle; the
production path is :class:`CoverRegion`, a list-native
:class:`~repro.geometry.antichain.ScoredAntichain` carved by one counted
``cover_carve`` kernel call per group close: at e=2 a skyline cover is a
sorted staircase and the call is a bisection plus one slice replaced in
place (:func:`repro.kernels.reference.staircase_carve`, called on the
cover's own lists); every other cover goes
through :func:`repro.kernels.reference.cover_carve`, a loop over the list (an
array form had to build its operand from the list first and never won).

The FR* variant additionally skylines the result, and — as the paper's
printed ``FR*::UpdateCR`` does — skylining the new points ``S⁺`` among
themselves is enough.  **Lemma.**  Let the cover be an antichain, ``y`` the
carved vector, ``p = s[i ↦ y_i]`` a projection of a removed ``s ⪰ y``, and
``t`` a survivor, i.e. ``t_k < y_k`` for some ``k``.  (1) ``t ⪰ p`` is
impossible, for *any* cover: ``t_i ≥ p_i = y_i`` forces ``k ≠ i``, and then
``t_k ≥ p_k = s_k ≥ y_k`` contradicts ``t_k < y_k``.  (2) ``p ≻ t`` is
impossible: ``s ⪰ p ≻ t`` would put two comparable points in the antichain.
So the production carve never compares fresh points with survivors: it is
a delta (kept rows plus fresh points) applied in place.  The loop oracle
below still skylines the full union; ``tests/kernels/test_carve_patch.py``
is the Lemma's executable proof.  At e=2 the removed rows are contiguous
and their projections' skyline is at most two points that sort where the
rows were — the staircase lemma, DESIGN.md §5.

**The grid is a rounding rule** (Section 5.1.2).  aFR's grid tree — marked
cells of an ``r × … × r`` grid, each contributing its upper corner — is this
same cover with every observation first rounded *up* onto the grid,
``q = ⌈y·r⌉ / r`` (:func:`round_up`): ``aFR::UpdateGridCR`` unmarks the cells
whose corner exceeds ``q`` strictly in every coordinate and slides them onto
``q``; the carve above removes *weakly*, but a corner with a coordinate equal
to ``q``'s is its own projection on that axis and dominates its other
projections, so it comes straight back.  ``InitializeGridCR`` and the
resolution drop ``L ← L − 1`` are "round the cover's own points up, skyline"
(:meth:`CoverRegion.coarsen`).  ``r`` is a power of two, so every corner
``k/r`` is an exact float and the two formulations agree bit for bit; the
cell formulation lives on as the oracle in ``tests/geometry/grid_oracle.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import ceil, inf

from repro.geometry.antichain import ScoredAntichain
from repro.geometry.dominance import (
    Point,
    as_point,
    dominates,
    ones,
    strictly_dominates,
    substitute,
)
from repro.geometry.skyline import skyline
from repro.kernels.types import dimension_mismatch


def round_up(point: Sequence[float], resolution: int) -> Point:
    """``point`` rounded up onto the grid of ``resolution`` cells per axis.

    Exact ``ceil``: the rounded vector must weakly dominate the raw one, or
    carving it would remove feasible space (Theorem 5.1's premise).
    """
    return tuple(
        min(max(ceil(v * resolution) / resolution, 0.0), 1.0) for v in point
    )


def covers(cover: Iterable[Sequence[float]], point: Sequence[float]) -> bool:
    """True if some point of ``cover`` weakly dominates ``point``."""
    target = as_point(point)
    return any(dominates(c, target) for c in cover)


def update_cover(
    cover: Iterable[Sequence[float]],
    observed: Iterable[Sequence[float]],
    *,
    skyline_result: bool = False,
) -> list[Point]:
    """Carve the regions dominating each observed vector out of ``cover``.

    Implements ``FR::UpdateCR`` (and, with ``skyline_result=True``, the FR*
    variant).  ``observed`` is the batch ``b[G_i]`` of score vectors from the
    group that just finished.
    """
    current: list[Point] = [as_point(c) for c in cover]
    for raw in observed:
        y = as_point(raw)
        if current and len(y) != len(current[0]):
            raise dimension_mismatch("cover", len(current[0]), len(y))
        removed = [s for s in current if dominates(s, y)]
        if not removed:
            continue
        survivors = [s for s in current if not dominates(s, y)]
        projected: set[Point] = set()
        for s in removed:
            for axis, value in enumerate(y):
                candidate = substitute(s, axis, value)
                if all(coord > 0.0 for coord in candidate):
                    projected.add(candidate)
        if skyline_result:
            # The oracle resolves new-vs-survivor dominations too; by the
            # Lemma (module docstring) both passes find nothing, which is
            # what the production carve relies on and the tests check.
            fresh = [
                p
                for p in skyline(projected)
                if not any(dominates(s, p) for s in survivors)
            ]
            survivors = [
                s
                for s in survivors
                if not any(strictly_dominates(p, s) for p in fresh)
            ]
            current = survivors + fresh
        else:
            current = survivors + sorted(projected)
    return current


class CoverRegion(ScoredAntichain):
    """A maintained cover of the unseen score vectors of one input.

    Starts as ``{(1, …, 1)}`` — everything is feasible before any group
    completes — and shrinks through :meth:`update` calls.  With
    ``skyline_mode=True`` the point set is kept as a skyline (FR* behaviour).

    The points live in a plain list (:class:`ScoredAntichain`; at
    ``dimension == 2`` with ``skyline_mode`` the sorted staircase) and each
    :meth:`update` is a single counted ``cover_carve`` kernel call whose
    delta is applied in place — cover maintenance runs on every group close
    of the FR-family bounds and is their hottest loop.  With a row
    scorer (``score=``) the cover carries its points' partial scores and
    their maximum, :attr:`best`, across carves.  The semantics are identical
    to the reference :func:`update_cover` (the test suite asserts the
    equivalence property-based).

    ``resolution`` (``None``: exact; else a power of two) puts the cover on
    the grid of that many cells per axis — the paper's grid tree at level
    ``log2(resolution)``: observations are rounded up onto it before the
    carve, :meth:`coarsen` moves the cover itself onto a grid, and at
    resolution 1 the cover is pinned at ``{(1, …, 1)}``, HRJN*'s corner bound.
    """

    __slots__ = ("resolution",)
    #: The point budget :meth:`cut` restores after a carve that outgrew it
    #: (aFR's ``max_cr_size``); a cover without one never exceeds it.
    max_size = inf

    def __init__(
        self,
        dimension: int,
        *,
        skyline_mode: bool = False,
        score=None,
        resolution: int | None = None,
    ) -> None:
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        super().__init__(
            [ones(dimension)], score=score, dimension=dimension,
            skyline_mode=skyline_mode,
        )
        self.resolution = resolution

    def update(self, observed: Iterable[Sequence[float]]) -> None:
        """Carve out the regions dominating each vector in ``observed``
        (``FR::UpdateCR``; on a grid, ``aFR::UpdateGridCR``): :meth:`cut`
        after the checks."""
        batch = [as_point(raw) for raw in observed]
        for y in batch:
            if len(y) != self.dimension:
                raise dimension_mismatch("cover", self.dimension, len(y))
        self.cut(batch)

    def cut(self, batch: list[Point]) -> None:
        """:meth:`update` for canonical tuples of this cover's dimension —
        FR*'s group-close step, unchecked: observations rounded up onto the
        grid, one carve, and :meth:`_fit` only if the cover outgrew
        :attr:`max_size`."""
        resolution = self.resolution
        if resolution == 1:  # one cell per axis: the corner-bound regime
            return
        if resolution is not None:
            batch = [round_up(y, resolution) for y in batch]
        if batch and self._points:
            self.carve(batch)
            if len(self._points) > self.max_size:
                self._fit()

    def _fit(self) -> None:
        """Bring an over-budget cover back under :attr:`max_size`; a cover
        with no grid to move onto keeps its points."""

    def coarsen(self, resolution: int) -> None:
        """Move the cover onto the grid of ``resolution`` cells per axis:
        its points rounded up, skylined, rescored (``aFR::InitializeGridCR``;
        from a finer grid, the paper's ``L ← L − 1``).  Rounding up is
        monotone and the skyline keeps its input's order, so a staircase
        comes back a staircase."""
        self.resolution = resolution
        self._patch(
            [], skyline(round_up(p, resolution) for p in self._points)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoverRegion(dim={self.dimension}, points={len(self)})"
