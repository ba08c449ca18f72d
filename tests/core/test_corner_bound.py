"""Unit tests for the corner bound (HRJN*)."""

import pytest

from repro.core.bounds import LEFT, RIGHT, BoundContext, CornerBound
from repro.core.scoring import NEG_INF, SumScore
from repro.core.tuples import RankTuple


@pytest.fixture
def bound():
    scheme = CornerBound()
    scheme.bind(BoundContext(SumScore(), (2, 2)))
    return scheme


def tup(*scores):
    return RankTuple(key=0, scores=tuple(scores))


class TestBoundContext:
    def test_score_bound_left(self):
        ctx = BoundContext(SumScore(), (2, 3))
        assert ctx.score_bound(LEFT, (0.5, 0.5)) == pytest.approx(4.0)

    def test_score_bound_right(self):
        ctx = BoundContext(SumScore(), (2, 3))
        assert ctx.score_bound(RIGHT, (0.1, 0.1, 0.1)) == pytest.approx(2.3)


class TestCornerBound:
    def test_initial_bound_is_infinite(self):
        assert CornerBound().current() == float("inf")

    def test_update_sets_threshold(self, bound):
        t = bound.update(LEFT, tup(0.5, 0.5))
        # thr_left = 0.5 + 0.5 + 2 (ones) = 3.0, thr_right still inf
        assert t == float("inf")
        t = bound.update(RIGHT, tup(0.2, 0.2))
        assert t == pytest.approx(3.0)

    def test_bound_is_max_of_thresholds(self, bound):
        bound.update(LEFT, tup(0.9, 0.9))
        bound.update(RIGHT, tup(0.1, 0.1))
        assert bound.current() == pytest.approx(0.9 + 0.9 + 2)
        assert bound.thresholds == (
            pytest.approx(3.8),
            pytest.approx(2.2),
        )

    def test_potential_is_per_side_threshold(self, bound):
        bound.update(LEFT, tup(0.9, 0.9))
        bound.update(RIGHT, tup(0.1, 0.1))
        assert bound.potential(LEFT) == pytest.approx(3.8)
        assert bound.potential(RIGHT) == pytest.approx(2.2)

    def test_bound_decreases_with_decreasing_input(self, bound):
        values = [0.9, 0.7, 0.4]
        previous = float("inf")
        for v in values:
            bound.update(LEFT, tup(v, v))
            bound.update(RIGHT, tup(v, v))
            current = bound.current()
            assert current <= previous
            previous = current

    def test_exhaustion_collapses_side(self, bound):
        bound.update(LEFT, tup(0.5, 0.5))
        bound.update(RIGHT, tup(0.4, 0.4))
        t = bound.notify_exhausted(LEFT)
        assert t == pytest.approx(0.4 + 0.4 + 2)
        t = bound.notify_exhausted(RIGHT)
        assert t == NEG_INF

    def test_update_requires_bind(self):
        scheme = CornerBound()
        with pytest.raises(AssertionError):
            scheme.update(LEFT, tup(0.5, 0.5))

    def test_no_cover_recomputations(self, bound):
        bound.update(LEFT, tup(0.5, 0.5))
        assert bound.cover_recomputations == 0

    def test_corner_assumes_ideal_partner(self, bound):
        """The corner bound's weakness: it assumes a (1, 1) partner exists."""
        bound.update(LEFT, tup(0.5, 0.5))
        bound.update(RIGHT, tup(0.5, 0.5))
        # True max future score is 2.0 if no better vectors exist, but the
        # corner bound still claims 3.0 — exactly the Figure 12 pathology.
        assert bound.current() == pytest.approx(3.0)
