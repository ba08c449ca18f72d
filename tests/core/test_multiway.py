"""Tests for the multiway (n-ary) rank join: PBRJ over a chain."""

import numpy as np
import pytest

from repro.core.bounds import CornerBound
from repro.core.operators import multiway_rank_join
from repro.core.pbrj import PBRJ
from repro.core.pulling import PotentialAdaptive
from repro.core.scoring import SumScore
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.relation.relation import Relation
from repro.relation.sources import SortedScan
from repro.service.query import QuerySpec
from tests.chain_oracle import brute_force


def relation(name, rows, key_attr):
    return Relation(
        name,
        [
            RankTuple(key=payload[key_attr], scores=scores, payload=dict(payload))
            for payload, scores in rows
        ],
    )


@pytest.fixture
def three_chain():
    a = relation(
        "A",
        [({"x": 1}, (0.9,)), ({"x": 2}, (0.7,)), ({"x": 1}, (0.2,))],
        "x",
    )
    b = relation(
        "B",
        [({"x": 1, "y": 10}, (0.8,)), ({"x": 2, "y": 11}, (0.6,)),
         ({"x": 1, "y": 11}, (0.4,))],
        "x",
    )
    c = relation(
        "C",
        [({"y": 10}, (0.5,)), ({"y": 11}, (0.9,))],
        "y",
    )
    return [a, b, c], ["x", "y"]


class TestConstruction:
    def test_needs_two_inputs(self):
        with pytest.raises(InstanceError):
            PBRJ([SortedScan([])], SumScore(), CornerBound(), PotentialAdaptive(),
                 join_attrs=[])

    def test_join_attr_arity(self, three_chain):
        relations, __ = three_chain
        with pytest.raises(InstanceError):
            multiway_rank_join(relations, ["x"], SumScore())

    def test_missing_chain_attribute_raises(self):
        a = relation("A", [({"x": 1}, (0.9,))], "x")
        b = relation("B", [({"z": 1}, (0.8,))], "z")
        operator = multiway_rank_join([a, b], ["x"], SumScore())
        with pytest.raises(InstanceError):
            operator.get_next()


class TestQuerySpec:
    @pytest.mark.parametrize("algorithm", ["pbrj", "auto"])
    def test_unknown_operator_is_refused_for_every_arity(self, three_chain, algorithm):
        relations, attrs = three_chain
        for chain, links in ((relations, attrs), (relations[:2], ())):
            with pytest.raises(InstanceError, match="unknown operator 'nope'"):
                QuerySpec(chain, 3, operator="nope", algorithm=algorithm,
                          join_attrs=links)

    def test_a_known_name_on_a_chain_runs_mw_hrjn_star(self, three_chain):
        relations, attrs = three_chain
        spec = QuerySpec(relations, 3, operator="a-FRPA", join_attrs=attrs)
        assert spec.build_operator().name == "MW-HRJN*"
        # any-k takes no operator name, known or not.
        QuerySpec(relations, 3, operator="nope", algorithm="anyk", join_attrs=attrs)


class TestCorrectness:
    def test_matches_bruteforce_3way(self, three_chain):
        relations, attrs = three_chain
        operator = multiway_rank_join(relations, attrs, SumScore())
        got = [r.score for r in operator]
        expected = brute_force(relations, attrs, SumScore())
        assert got == pytest.approx(expected)

    def test_2way_matches_binary_semantics(self):
        a = relation("A", [({"x": 1}, (0.9,)), ({"x": 2}, (0.3,))], "x")
        b = relation("B", [({"x": 1}, (0.5,)), ({"x": 1}, (0.4,))], "x")
        operator = multiway_rank_join([a, b], ["x"], SumScore())
        scores = [r.score for r in operator]
        assert scores == pytest.approx([1.4, 1.3])

    def test_result_metadata(self, three_chain):
        relations, attrs = three_chain
        operator = multiway_rank_join(relations, attrs, SumScore())
        top = operator.get_next()
        assert top is not None
        assert len(top.tuples) == 3
        assert len(top.scores) == 3
        assert "y" in top.merged_payload()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_chains_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)

        def random_relation(name, n, left_attr, right_attr):
            rows = []
            for __ in range(n):
                payload = {}
                if left_attr:
                    payload[left_attr] = int(rng.integers(0, 4))
                if right_attr:
                    payload[right_attr] = int(rng.integers(0, 4))
                rows.append((payload, (float(rng.random()),)))
            return relation(name, rows, left_attr or right_attr)

        relations = [
            random_relation("A", 12, None, "p"),
            random_relation("B", 12, "p", "q"),
            random_relation("C", 12, "q", None),
        ]
        attrs = ["p", "q"]
        operator = multiway_rank_join(relations, attrs, SumScore())
        got = [r.score for r in operator]
        expected = brute_force(relations, attrs, SumScore())
        assert got == pytest.approx(expected)


class TestEarlyTermination:
    def test_does_not_exhaust_inputs_for_k1(self):
        n = 200
        def mk(name, left, right):
            rows = []
            for i in range(n):
                payload = {}
                if left:
                    payload[left] = i
                if right:
                    payload[right] = i
                rows.append((payload, (1.0 - i / n,)))
            return relation(name, rows, left or right)

        relations = [mk("A", None, "p"), mk("B", "p", "q"), mk("C", "q", None)]
        operator = multiway_rank_join(relations, ["p", "q"], SumScore())
        top = operator.get_next()
        assert top is not None
        assert top.score == pytest.approx(3.0)
        assert operator.sum_depths < 2 * n  # far below the 3n total

    def test_depths_reported_per_input(self, three_chain):
        relations, attrs = three_chain
        operator = multiway_rank_join(relations, attrs, SumScore())
        operator.get_next()
        depths = operator.depths()
        assert len(depths) == 3
        assert operator.sum_depths == sum(depths)

    def test_pull_budget(self, three_chain):
        relations, attrs = three_chain
        operator = multiway_rank_join(relations, attrs, SumScore())
        assert operator.try_next(max_pulls=1) is PENDING
        assert operator.pulls == 1

    def test_bound_decreases(self, three_chain):
        relations, attrs = three_chain
        operator = multiway_rank_join(relations, attrs, SumScore())
        operator.get_next()
        assert operator.bound_value < float("inf")


class TestExhaustion:
    def test_empty_relation_gives_empty_output(self):
        a = relation("A", [({"x": 1}, (0.9,))], "x")
        b = Relation("B", [])
        operator = PBRJ(
            [SortedScan(a.tuples), SortedScan([], cost_model=None)],
            SumScore(), CornerBound(), PotentialAdaptive(), join_attrs=["x"],
        )
        assert operator.get_next() is None

    def test_returns_none_after_end(self, three_chain):
        relations, attrs = three_chain
        operator = multiway_rank_join(relations, attrs, SumScore())
        list(operator)
        assert operator.get_next() is None
