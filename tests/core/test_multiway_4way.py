"""4-relation multiway chains: correctness and weighted scoring."""

import numpy as np
import pytest

from repro.core.afr_bound import AFRBound
from repro.core.operators import multiway_rank_join
from repro.core.scoring import SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.relation.relation import Relation
from tests.chain_oracle import brute_force


def relation(name, rows, key_attr):
    return Relation(
        name,
        [RankTuple(key=p[key_attr], scores=s, payload=dict(p)) for p, s in rows],
    )


def random_4chain(seed, n=10, keys=3):
    rng = np.random.default_rng(seed)
    attrs = ["p", "q", "r"]

    def mk(name, left, right):
        rows = []
        for __ in range(n):
            payload = {}
            if left:
                payload[left] = int(rng.integers(0, keys))
            if right:
                payload[right] = int(rng.integers(0, keys))
            rows.append((payload, (float(rng.random()),)))
        return relation(name, rows, left or right)

    relations = [
        mk("A", None, "p"),
        mk("B", "p", "q"),
        mk("C", "q", "r"),
        mk("D", "r", None),
    ]
    return relations, attrs


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestFourWayCorrectness:
    def test_corner_bound(self, seed):
        relations, attrs = random_4chain(seed)
        operator = multiway_rank_join(relations, attrs, SumScore())
        got = [r.score for r in operator]
        assert got == pytest.approx(brute_force(relations, attrs, SumScore()))

    def test_feasible_bound(self, seed):
        relations, attrs = random_4chain(seed)
        operator = multiway_rank_join(
            relations, attrs, SumScore(), bound=AFRBound()
        )
        got = [r.score for r in operator]
        assert got == pytest.approx(brute_force(relations, attrs, SumScore()))


class TestWeightedMultiway:
    def test_weighted_sum_4way(self):
        relations, attrs = random_4chain(5)
        scoring = WeightedSum([0.4, 0.3, 0.2, 0.1])
        operator = multiway_rank_join(
            relations, attrs, scoring, bound=AFRBound()
        )
        got = [r.score for r in operator.top_k(6)]
        expected = brute_force(relations, attrs, scoring)[: len(got)]
        assert got == pytest.approx(expected)

    def test_result_dimensions(self):
        relations, attrs = random_4chain(6)
        operator = multiway_rank_join(relations, attrs, SumScore())
        top = operator.get_next()
        if top is not None:
            assert len(top.tuples) == 4
            assert len(top.scores) == 4
            assert len(operator.depths()) == 4
