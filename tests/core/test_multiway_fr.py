"""The feasible-region bound over n inputs: a-FRPA's ``AFRBound`` on a chain.

FR* and aFR keep their cases over ``len(context.dims)`` inputs, so the
n-ary operator takes the binary operators' bound; beyond two inputs it
needs an additive scoring, and the literal FR bound stays binary.
"""

import numpy as np
import pytest

from repro.core.afr_bound import AFRBound
from repro.core.bounds import BoundContext, CornerBound
from repro.core.fr_bound import FRBound
from repro.core.operators import multiway_rank_join
from repro.core.scoring import MinScore, SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.obs import Observability
from repro.relation.relation import Relation
from tests.chain_oracle import brute_force


def relation(name, rows, key_attr):
    return Relation(
        name,
        [
            RankTuple(key=p[key_attr], scores=s, payload=dict(p))
            for p, s in rows
        ],
    )


def random_chain(seed, n=15, keys=4, dims=1):
    rng = np.random.default_rng(seed)

    def mk(name, left, right):
        rows = []
        for __ in range(n):
            payload = {}
            if left:
                payload[left] = int(rng.integers(0, keys))
            if right:
                payload[right] = int(rng.integers(0, keys))
            rows.append((payload, tuple(float(x) for x in rng.random(dims))))
        return relation(name, rows, left or right)

    return [mk("A", None, "p"), mk("B", "p", "q"), mk("C", "q", None)], ["p", "q"]


class TestConstruction:
    def test_rejects_non_additive_scoring(self):
        # Over two inputs FR* takes MinScore through the cross product.
        bound = AFRBound()
        with pytest.raises(InstanceError, match="additive"):
            bound.bind(BoundContext(MinScore(), (1, 1, 1)))

    def test_accepts_weighted_sum(self):
        bound = AFRBound()
        bound.bind(BoundContext(WeightedSum([0.5, 0.2, 0.3, 0.4]), (1, 2, 1)))
        assert bound.cover_sizes == (1, 1, 1)

    def test_literal_fr_bound_refuses_three_inputs(self):
        with pytest.raises(InstanceError, match="two inputs, got 3"):
            FRBound().bind(BoundContext(SumScore(), (1, 1, 1)))

    def test_grid_metrics_are_labelled_by_input(self):
        relations, attrs = random_chain(0, n=40, dims=2)
        obs = Observability()
        operator = multiway_rank_join(
            relations, attrs, SumScore(), obs=obs,
            bound=AFRBound(max_cr_size=2, resolution=8),
        )
        operator.top_k(5)
        series = obs.metrics.metrics_named("gridtree_resolution")
        assert [labels["side"] for _, labels, _ in series] == ["0", "1", "2"]
        resolutions = operator.bound_scheme.cover_resolutions
        assert None not in resolutions
        assert [metric.value for _, _, metric in series] == list(resolutions)


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestCorrectness:
    def test_matches_bruteforce(self, seed):
        relations, attrs = random_chain(seed)
        operator = multiway_rank_join(
            relations, attrs, SumScore(),
            bound=AFRBound(), name="MW-FR",
        )
        got = [r.score for r in operator]
        expected = brute_force(relations, attrs, SumScore())
        assert got == pytest.approx(expected)

    def test_agrees_with_corner_variant(self, seed):
        relations, attrs = random_chain(seed)
        fr = multiway_rank_join(
            relations, attrs, SumScore(), bound=AFRBound()
        )
        corner = multiway_rank_join(
            relations, attrs, SumScore(), bound=CornerBound()
        )
        assert [r.score for r in fr.top_k(5)] == pytest.approx(
            [r.score for r in corner.top_k(5)]
        )


class TestDepthAdvantage:
    def _cut_chain(self, n=200, cut=0.4, seed=0):
        """Single-score chain where no score exceeds ``cut``."""
        rng = np.random.default_rng(seed)

        def mk(name, left, right):
            rows = []
            for i in range(n):
                payload = {}
                if left:
                    payload[left] = int(rng.integers(0, 10))
                if right:
                    payload[right] = int(rng.integers(0, 10))
                rows.append((payload, (float(rng.random()) * cut,)))
            return relation(name, rows, left or right)

        return [mk("A", None, "p"), mk("B", "p", "q"), mk("C", "q", None)], ["p", "q"]

    def test_feasible_bound_never_deeper_than_corner(self):
        relations, attrs = self._cut_chain()
        fr = multiway_rank_join(
            relations, attrs, SumScore(), bound=AFRBound()
        )
        corner = multiway_rank_join(
            relations, attrs, SumScore(), bound=CornerBound()
        )
        fr.top_k(5)
        corner.top_k(5)
        assert fr.sum_depths <= corner.sum_depths

    def test_feasible_bound_wins_big_under_cut(self):
        relations, attrs = self._cut_chain()
        fr = multiway_rank_join(
            relations, attrs, SumScore(), bound=AFRBound()
        )
        corner = multiway_rank_join(
            relations, attrs, SumScore(), bound=CornerBound()
        )
        fr.top_k(5)
        corner.top_k(5)
        # The corner bound's double 1-substitution (max 1+1+cut) can never
        # fall below the terminal score (~3*cut), so it reads everything;
        # the feasible covers learn the cut.
        assert corner.sum_depths == sum(len(r) for r in relations)
        assert fr.sum_depths < corner.sum_depths / 2


class TestBoundSemantics:
    def test_bound_decreases(self):
        relations, attrs = random_chain(0)
        operator = multiway_rank_join(
            relations, attrs, SumScore(), bound=AFRBound()
        )
        previous = float("inf")
        for __ in range(10):
            if operator.get_next() is None:
                break
            assert operator.bound_value <= previous + 1e-9
            previous = operator.bound_value

    def test_potential_finite_after_updates(self):
        relations, attrs = random_chain(1)
        operator = multiway_rank_join(
            relations, attrs, SumScore(), bound=AFRBound()
        )
        operator.get_next()
        for index in range(3):
            assert operator.bound_scheme.potential(index) < float("inf")
