"""Tests for the J*-style rank join baseline."""

import pytest

from repro.core.jstar import JStar, jstar_from_instance
from repro.core.naive import naive_top_k, top_scores
from repro.core.operators import frpa
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.errors import InstanceError


def rows(pairs):
    tuples = [RankTuple(key=k, scores=(s,)) for k, s in pairs]
    return sorted(tuples, key=lambda t: t.scores[0], reverse=True)


class TestValidation:
    def test_rejects_multi_score_inputs(self):
        multi = [RankTuple(key=1, scores=(0.5, 0.5))]
        with pytest.raises(InstanceError):
            JStar(multi, rows([(1, 0.5)]))

    def test_rejects_unsorted(self):
        unsorted = [RankTuple(key=1, scores=(0.1,)), RankTuple(key=2, scores=(0.9,))]
        with pytest.raises(InstanceError):
            JStar(unsorted, rows([(1, 0.5)]))

    def test_empty_inputs(self):
        assert JStar([], rows([(1, 0.5)])).get_next() is None
        assert JStar(rows([(1, 0.5)]), []).get_next() is None


class TestCorrectness:
    def test_simple(self):
        left = rows([(1, 0.9), (2, 0.8), (1, 0.3)])
        right = rows([(2, 1.0), (1, 0.7)])
        got = top_scores(list(JStar(left, right)))
        expected = top_scores(naive_top_k(left, right, SumScore(), 10))
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_on_random_instances(self, seed):
        instance = random_instance(
            n_left=150, n_right=150, e_left=1, e_right=1,
            num_keys=15, k=10, cut=1.0, seed=seed,
        )
        operator = jstar_from_instance(instance)
        got = top_scores(operator.top_k(10))
        expected = top_scores(
            naive_top_k(instance.left.tuples, instance.right.tuples,
                        instance.scoring, 10)
        )
        assert got == pytest.approx(expected)

    def test_agrees_with_frpa(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=1, e_right=1,
            num_keys=25, k=8, cut=0.5, seed=7,
        )
        jstar = jstar_from_instance(instance)
        pbrj = frpa(instance)
        assert top_scores(jstar.top_k(8)) == pytest.approx(
            top_scores(pbrj.top_k(8))
        )

    def test_exhaustion_returns_none(self):
        left = rows([(1, 0.9)])
        right = rows([(1, 0.5)])
        operator = JStar(left, right)
        assert operator.get_next() is not None
        assert operator.get_next() is None
        assert operator.get_next() is None


class TestCostAccounting:
    def test_depths_bounded_by_inputs(self):
        instance = random_instance(
            n_left=100, n_right=100, e_left=1, e_right=1,
            num_keys=10, k=5, cut=1.0, seed=1,
        )
        operator = jstar_from_instance(instance)
        operator.top_k(5)
        left, right = operator.depths()
        assert left <= 100
        assert right <= 100
        assert operator.states_popped >= 5

    def test_early_termination_on_top_heavy_input(self):
        n = 300
        left = rows([(i, 1.0 - i / n) for i in range(n)])
        right = rows([(i, 1.0 - i / n) for i in range(n)])
        operator = JStar(left, right)
        top = operator.get_next()
        assert top is not None
        assert top.score == pytest.approx(2.0)
        assert operator.sum_depths < 20

    def test_lattice_states_can_exceed_depths(self):
        """J* pays CPU for non-matching pairs between matches."""
        # Keys arranged so the first match is far down the lattice diagonal.
        left = rows([(i, 1.0 - i / 50) for i in range(25)])
        right = rows([(i + 100, 1.0 - i / 50) for i in range(24)]
                     + [(0, 0.01)])  # only the deep tail matches key 0
        operator = JStar(left, right)
        result = operator.get_next()
        assert result is not None
        assert operator.states_popped > operator.depths()[0]
