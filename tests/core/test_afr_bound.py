"""Tests for the adaptive aFR bound and its cover strategies (Section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.afr_bound import (
    AdaptiveCover,
    AFRBound,
    FixedGridCover,
    FrozenCover,
)
from repro.core.bounds import LEFT, RIGHT, BoundContext
from repro.core.frstar_bound import FRStarBound
from repro.core.scoring import SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.geometry.antichain import partial
from repro.geometry.dominance import dominates
from repro.geometry.skyline import is_skyline

unit = st.floats(0, 1, allow_nan=False)
vec2 = st.tuples(unit, unit)


class TestAdaptiveCover:
    def test_starts_exact(self):
        cover = AdaptiveCover(2, max_size=10)
        assert cover.mode == "exact"
        assert cover.resolution is None
        assert cover.points == [(1.0, 1.0)]

    def test_stays_exact_below_budget(self):
        cover = AdaptiveCover(2, max_size=100)
        cover.update([(0.5, 0.5)])
        assert cover.mode == "exact"
        assert len(cover) == 2

    def test_transitions_to_grid_when_budget_exceeded(self):
        cover = AdaptiveCover(2, max_size=3, resolution=16)
        # A staircase of incomparable carvings grows the exact cover.
        for i in range(1, 9):
            cover.update([(i / 10, 1.0 - i / 10)])
        assert cover.mode == "grid"
        assert len(cover) <= 2 * 3  # bounded by budget after reductions

    def test_budget_enforced_via_resolution_reduction(self):
        cover = AdaptiveCover(2, max_size=4, resolution=64)
        for i in range(1, 40):
            cover.update([(i / 41, 1.0 - i / 41)])
        assert cover.mode == "grid"
        assert len(cover) <= 4 or cover.resolution == 1

    def test_1d_cover_never_needs_grid(self):
        cover = AdaptiveCover(1, max_size=2)
        for v in [0.9, 0.5, 0.2]:
            cover.update([(v,)])
        assert cover.mode == "exact"
        assert cover.points == [(0.2,)]

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            AdaptiveCover(2, max_size=0)

    @given(st.lists(vec2, min_size=1, max_size=25), vec2)
    @settings(max_examples=80, deadline=None)
    def test_cover_correctness_through_transition(self, observed, probe):
        """Correctness must survive the exact → grid transition."""
        cover = AdaptiveCover(2, max_size=4, resolution=16)
        for y in observed:
            cover.update([y])
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert cover.covers(probe)

    @given(st.lists(vec2, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_cover_points_remain_skyline(self, observed):
        cover = AdaptiveCover(2, max_size=4, resolution=16)
        for y in observed:
            cover.update([y])
        assert is_skyline(cover.points)

    def test_best_matches_points_through_transition(self):
        """Carried while exact, a rescan of the marked cells on the grid."""
        weights = WeightedSum((0.5, 2.0)).row_weights(0, 2)
        cover = AdaptiveCover(2, max_size=3, resolution=8, weights=weights)
        modes = set()
        for i in range(1, 8):
            cover.update([(i / 9, 1.0 - i / 9)])
            modes.add(cover.mode)
            assert cover.best == max(partial(p, weights) for p in cover.points)
        assert modes == {"exact", "grid"}
        assert AdaptiveCover(2, max_size=3).best is None  # no weights, no best


class TestFrozenCover:
    def test_freezes_past_budget(self):
        cover = FrozenCover(2, max_size=2)
        cover.update([(0.7, 0.7)])
        assert not cover.frozen
        cover.update([(0.3, 0.9), (0.9, 0.3)])
        assert cover.frozen
        before = cover.points
        cover.update([(0.1, 0.1)])  # ignored
        assert cover.points == before

    def test_frozen_cover_still_correct_but_loose(self):
        cover = FrozenCover(2, max_size=1)
        cover.update([(0.5, 0.5)])
        cover.update([(0.2, 0.2)])  # frozen by now
        # Still a correct cover for feasible points (it just stopped
        # shrinking) — every feasible point remains covered.
        assert cover.covers((0.4, 0.9))


class TestFixedGridCover:
    def test_safe_resolution_solves_budget(self):
        assert FixedGridCover._safe_resolution(3, 500) == 16  # 16^2=256 <= 500
        assert FixedGridCover._safe_resolution(3, 100) == 8
        assert FixedGridCover._safe_resolution(2, 500) == 256
        assert FixedGridCover._safe_resolution(1, 500) == 1

    def test_quantizes_from_the_start(self):
        cover = FixedGridCover(2, max_size=16, resolution=4)
        cover.update([(0.3, 0.3)])
        for p in cover.points:
            for coord in p:
                assert coord in {0.25, 0.5, 0.75, 1.0}

    def test_size_never_exceeds_worst_case(self):
        cover = FixedGridCover(2, max_size=8, resolution=8)
        rng = np.random.default_rng(0)
        for y in rng.random((50, 2)):
            cover.update([tuple(y)])
        assert len(cover) <= 8  # antichain on 8x8 grid


class TestAFRBound:
    def _run(self, bound, left, right):
        bound.bind(BoundContext(SumScore(), (2, 2)))
        values = []
        left = sorted(left, key=sum, reverse=True)
        right = sorted(right, key=sum, reverse=True)
        for i in range(max(len(left), len(right))):
            if i < len(left):
                values.append(
                    bound.update(LEFT, RankTuple(key=0, scores=tuple(left[i])))
                )
            if i < len(right):
                values.append(
                    bound.update(RIGHT, RankTuple(key=0, scores=tuple(right[i])))
                )
        return values

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            AFRBound(cover_strategy="nope")

    @given(
        st.lists(vec2, min_size=1, max_size=12),
        st.lists(vec2, min_size=1, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_frstar_below_budget(self, left, right):
        """a-FRPA == FRPA while both covers stay within maxCRSize."""
        afr = AFRBound(max_cr_size=10_000)
        star = FRStarBound()
        afr_values = self._run(afr, left, right)
        star_values = self._run(star, left, right)
        assert afr.cover_modes == ("exact", "exact")
        assert afr_values == pytest.approx(star_values, abs=1e-12)

    @given(
        st.lists(vec2, min_size=1, max_size=15),
        st.lists(vec2, min_size=1, max_size=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_below_frstar(self, left, right):
        """aFR is a *loosened* FR*: its bound can only be >= FR*'s."""
        afr = AFRBound(max_cr_size=2, resolution=8)
        star = FRStarBound()
        afr_values = self._run(afr, left, right)
        star_values = self._run(star, left, right)
        for a, s in zip(afr_values, star_values):
            assert a >= s - 1e-9

    @staticmethod
    def _staircase(n):
        """Incomparable vectors with strictly decreasing sums.

        Each arrival closes the previous group, so the cover is carved on
        every step and keeps growing (a widening staircase).
        """
        return [
            (0.95 - 0.07 * i, 0.05 + 0.05 * i) for i in range(n)
        ]

    def test_cover_modes_reported(self):
        afr = AFRBound(max_cr_size=2, resolution=8)
        self._run(afr, self._staircase(12), [(0.5, 0.5)])
        assert afr.cover_modes[0] == "grid"
        assert afr.cover_resolutions[0] is not None

    def test_corner_bound_at_minimum_resolution(self):
        """At resolution 1 the aFR cover is {(1,1)} — the corner bound."""
        afr = AFRBound(max_cr_size=1, resolution=2)
        self._run(afr, self._staircase(12), [(0.5, 0.5)])
        assert afr.cover_modes[0] == "grid"
        if afr.cover_resolutions[0] == 1:
            assert afr._cr[0].points == [(1.0, 1.0)]

    def test_frozen_strategy_selectable(self):
        afr = AFRBound(max_cr_size=2, cover_strategy="frozen")
        self._run(afr, [(0.2, 0.9), (0.9, 0.2), (0.5, 0.5)], [(0.5, 0.5)])
        assert afr.cover_modes[0] in {"exact", "frozen"}

    def test_fixed_grid_strategy_selectable(self):
        afr = AFRBound(max_cr_size=16, cover_strategy="fixed-grid")
        self._run(afr, [(0.2, 0.9)], [(0.5, 0.5)])
        assert afr.cover_modes == ("fixed-grid", "fixed-grid")
