"""The pluggable components over n inputs (binary cases: their own files)."""

from repro.core.bounds import BoundContext, CornerBound
from repro.core.pulling import FixedSequence, PotentialAdaptive, RoundRobin
from repro.core.scoring import NEG_INF, SumScore
from repro.core.tuples import RankTuple

from tests.core.test_pulling import FakeView


def bound_to(strategy, inputs=3):
    strategy.bind(inputs)
    return strategy


class TestStrategiesOverThreeInputs:
    def test_round_robin_rotates_and_skips_exhausted(self):
        strategy = bound_to(RoundRobin())
        view = FakeView(exhausted=(False, False, False))
        assert [strategy.choose(view) for _ in range(4)] == [0, 1, 2, 0]
        view = FakeView(exhausted=(False, True, False))
        assert [strategy.choose(view) for _ in range(3)] == [2, 0, 2]

    def test_potential_adaptive_paper_tie_break(self):
        strategy = bound_to(PotentialAdaptive())
        # max potential, then least depth, then least index
        assert strategy.choose(FakeView((1.0, 3.0, 2.0), (0, 9, 0), (False,) * 3)) == 1
        assert strategy.choose(FakeView((2.0, 2.0, 2.0), (5, 3, 3), (False,) * 3)) == 1
        assert strategy.choose(FakeView((2.0, 9.0, 2.0), (4, 0, 4), (False, True, False))) == 0

    def test_fixed_sequence_falls_back_over_all_inputs(self):
        strategy = bound_to(FixedSequence([2]))
        view = FakeView(exhausted=(False, False, False))
        assert [strategy.choose(view) for _ in range(4)] == [2, 0, 1, 2]


def test_corner_bound_sizes_thresholds_from_dims():
    bound = CornerBound()
    bound.bind(BoundContext(SumScore(), (1, 2, 1)))
    assert bound.thresholds == (float("inf"),) * 3
    bound.update(1, RankTuple(key=0, scores=(0.5, 0.25)))  # S̄ = 1 + .75 + 1
    bound.update(0, RankTuple(key=0, scores=(0.5,)), 3.5)  # carried S̄
    assert bound.thresholds == (3.5, 2.75, float("inf"))
    assert bound.notify_exhausted(2) == 3.5
    assert bound.potential(2) == NEG_INF

