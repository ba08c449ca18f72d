"""Unit tests for pulling strategies."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bounds import LEFT, RIGHT
from repro.core.pulling import FixedSequence, PotentialAdaptive, RoundRobin


class FakeView:
    """Minimal OperatorView stub."""

    def __init__(self, potentials=(0.0, 0.0), depths=(0, 0), exhausted=(False, False)):
        self._potentials = list(potentials)
        self._depths = list(depths)
        self._exhausted = list(exhausted)

    def potential(self, side):
        return self._potentials[side]

    def depth(self, side):
        return self._depths[side]

    def is_exhausted(self, side):
        return self._exhausted[side]


class TestRoundRobin:
    def test_alternates_starting_left(self):
        strategy = RoundRobin()
        view = FakeView()
        assert [strategy.choose(view) for _ in range(4)] == [
            LEFT, RIGHT, LEFT, RIGHT,
        ]

    def test_skips_exhausted_side(self):
        strategy = RoundRobin()
        view = FakeView(exhausted=(True, False))
        assert strategy.choose(view) == RIGHT
        assert strategy.choose(view) == RIGHT

    def test_raises_when_both_exhausted(self):
        strategy = RoundRobin()
        view = FakeView(exhausted=(True, True))
        with pytest.raises(RuntimeError):
            strategy.choose(view)


class TestPotentialAdaptive:
    def test_prefers_higher_potential(self):
        strategy = PotentialAdaptive()
        assert strategy.choose(FakeView(potentials=(1.0, 2.0))) == RIGHT
        assert strategy.choose(FakeView(potentials=(3.0, 2.0))) == LEFT

    def test_tie_breaks_to_smaller_depth(self):
        strategy = PotentialAdaptive()
        view = FakeView(potentials=(1.0, 1.0), depths=(5, 3))
        assert strategy.choose(view) == RIGHT

    def test_tie_breaks_to_smaller_index_last(self):
        strategy = PotentialAdaptive()
        view = FakeView(potentials=(1.0, 1.0), depths=(4, 4))
        assert strategy.choose(view) == LEFT

    def test_only_available_side(self):
        strategy = PotentialAdaptive()
        view = FakeView(potentials=(0.0, 5.0), exhausted=(False, True))
        assert strategy.choose(view) == LEFT

    def test_infinite_potentials(self):
        strategy = PotentialAdaptive()
        inf = float("inf")
        view = FakeView(potentials=(inf, inf), depths=(0, 0))
        assert strategy.choose(view) == LEFT


def ranked_choice(view, inputs):
    """PA as it was written before the one-pass loop: rank every live
    input by (max potential, min depth, min index) and take the head.
    Kept here as the reference the loop is compared against."""
    available = [s for s in range(inputs) if not view.is_exhausted(s)]
    if not available:
        raise RuntimeError("choose() called with every input exhausted")
    ranked = sorted(
        (-view.potential(side), view.depth(side), side) for side in available
    )
    return ranked[0][2]


class DepthCountingView(FakeView):
    depth_reads = 0

    def depth(self, side):
        self.depth_reads += 1
        return super().depth(side)


#: Few distinct values, so ties on potential and on depth are the norm.
potentials = st.sampled_from([float("-inf"), 0.0, 0.5, 1.0, float("inf")])
views = st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(potentials, min_size=n, max_size=n),
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
))


class TestPotentialAdaptiveMatchesTheRanking:
    @given(views)
    def test_same_side_as_the_ranking(self, drawn):
        potentials, depths, exhausted = drawn
        inputs = len(potentials)
        view = DepthCountingView(potentials, depths, exhausted)
        strategy = PotentialAdaptive()
        strategy.bind(inputs)
        if all(exhausted):
            with pytest.raises(RuntimeError, match="every input exhausted"):
                strategy.choose(view)
            return
        side = ranked_choice(FakeView(potentials, depths, exhausted), inputs)
        assert strategy.choose(view) == side
        live = [p for p, gone in zip(potentials, exhausted) if not gone]
        if len(set(live)) == len(live):
            assert view.depth_reads == 0, "depths are read only on a tie"


class TestFixedSequence:
    def test_replays_sequence(self):
        strategy = FixedSequence([RIGHT, RIGHT, LEFT])
        view = FakeView()
        assert [strategy.choose(view) for _ in range(3)] == [RIGHT, RIGHT, LEFT]

    def test_falls_back_to_round_robin(self):
        strategy = FixedSequence([RIGHT])
        view = FakeView()
        strategy.choose(view)
        assert [strategy.choose(view) for _ in range(2)] == [LEFT, RIGHT]

    def test_skips_exhausted_in_sequence(self):
        strategy = FixedSequence([LEFT, RIGHT])
        view = FakeView(exhausted=(True, False))
        assert strategy.choose(view) == RIGHT
