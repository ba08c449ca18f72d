"""Tests for pipelined plans (Section 6.2.3)."""

import pytest

from repro.core.naive import full_join, naive_top_k, top_scores
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.plan.pipeline import OperatorSource, Pipeline
from repro.relation.relation import Relation


def relation(name, rows, key_attr):
    """rows: list of (payload_dict, score_tuple); keyed on key_attr."""
    tuples = [
        RankTuple(key=payload[key_attr], scores=scores, payload=dict(payload))
        for payload, scores in rows
    ]
    return Relation(name, tuples)


@pytest.fixture
def three_relations():
    """A small L ⋈ O ⋈ C chain with known results."""
    lineitem = relation(
        "L",
        [
            ({"orderkey": 1}, (0.9,)),
            ({"orderkey": 2}, (0.8,)),
            ({"orderkey": 1}, (0.3,)),
        ],
        "orderkey",
    )
    orders = relation(
        "O",
        [
            ({"orderkey": 1, "custkey": 10}, (0.7,)),
            ({"orderkey": 2, "custkey": 11}, (0.95,)),
        ],
        "orderkey",
    )
    customer = relation(
        "C",
        [
            ({"custkey": 10}, (0.5,)),
            ({"custkey": 11}, (0.4,)),
        ],
        "custkey",
    )
    return lineitem, orders, customer


def brute_force_3way(lineitem, orders, customer):
    scoring = SumScore()
    lo = full_join(lineitem.tuples, orders.tuples, scoring)
    results = []
    for r in lo:
        custkey = r.merged_payload()["custkey"]
        for c in customer.tuples:
            if c.key == custkey:
                results.append(r.score + sum(c.scores))
    return sorted(results, reverse=True)


class TestPipelineConstruction:
    def test_needs_two_relations(self, three_relations):
        with pytest.raises(InstanceError):
            Pipeline([three_relations[0]], [])

    def test_rekey_arity_checked(self, three_relations):
        lineitem, orders, customer = three_relations
        with pytest.raises(InstanceError):
            Pipeline([lineitem, orders, customer], [])  # needs 1 rekey attr

    def test_stage_count(self, three_relations):
        pipeline = Pipeline(list(three_relations), ["custkey"], operator="HRJN*")
        assert len(pipeline.stages) == 2


@pytest.mark.parametrize("operator", ["HRJN*", "FRPA", "a-FRPA", "PBRJ_FR^RR"])
class TestPipelineCorrectness:
    def test_two_way_matches_naive(self, three_relations, operator):
        lineitem, orders, __ = three_relations
        pipeline = Pipeline([lineitem, orders], [], operator=operator)
        got = top_scores(pipeline.top_k(10))
        expected = top_scores(
            naive_top_k(lineitem.tuples, orders.tuples, SumScore(), 10)
        )
        assert got == pytest.approx(expected)

    def test_three_way_matches_bruteforce(self, three_relations, operator):
        lineitem, orders, customer = three_relations
        pipeline = Pipeline(
            [lineitem, orders, customer], ["custkey"], operator=operator
        )
        got = top_scores(pipeline.top_k(10))
        expected = brute_force_3way(lineitem, orders, customer)
        assert got == pytest.approx(expected)

    def test_results_sorted(self, three_relations, operator):
        pipeline = Pipeline(list(three_relations), ["custkey"], operator=operator)
        scores = top_scores(pipeline.top_k(10))
        assert scores == sorted(scores, reverse=True)


class TestPipelineMetrics:
    def test_base_depths_tracked(self, three_relations):
        pipeline = Pipeline(list(three_relations), ["custkey"], operator="a-FRPA")
        pipeline.top_k(1)
        depths = pipeline.depths()
        assert len(depths) == 3
        assert all(d >= 0 for d in depths)
        assert pipeline.sum_depths == sum(depths)

    def test_incremental_laziness(self, three_relations):
        """Asking for 1 result must not exhaust the base relations."""
        lineitem = relation(
            "L",
            [({"orderkey": i}, (1.0 - i / 100,)) for i in range(50)],
            "orderkey",
        )
        orders = relation(
            "O",
            [({"orderkey": i, "custkey": i}, (1.0 - i / 100,)) for i in range(50)],
            "orderkey",
        )
        customer = relation(
            "C",
            [({"custkey": i}, (1.0 - i / 100,)) for i in range(50)],
            "custkey",
        )
        pipeline = Pipeline([lineitem, orders, customer], ["custkey"], operator="a-FRPA")
        results = pipeline.top_k(1)
        assert len(results) == 1
        assert results[0].score == pytest.approx(3.0)
        assert pipeline.sum_depths < 120  # far from 150 total tuples

    def test_io_cost_accumulates(self, three_relations):
        pipeline = Pipeline(list(three_relations), ["custkey"])
        pipeline.top_k(1)
        assert pipeline.io_cost > 0

    def test_timing_components(self, three_relations):
        pipeline = Pipeline(list(three_relations), ["custkey"])
        pipeline.top_k(2)
        timing = pipeline.timing()
        assert timing.total >= 0
        assert timing.bound >= 0


class TestOperatorSource:
    def test_wraps_results_with_rekey(self, three_relations):
        lineitem, orders, __ = three_relations
        inner = Pipeline([lineitem, orders], [], operator="HRJN*").top
        source = OperatorSource(inner, "custkey", dimension=2)
        tup = source.next()
        assert tup is not None
        assert tup.key in {10, 11}
        assert len(tup.scores) == 2

    def test_exhaustion(self, three_relations):
        lineitem, orders, __ = three_relations
        inner = Pipeline([lineitem, orders], [], operator="HRJN*").top
        source = OperatorSource(inner, "custkey", dimension=2)
        pulled = 0
        while source.next() is not None:
            pulled += 1
        assert pulled == 3  # join size of L ⋈ O
        assert not source.has_next()
        assert source.next() is None

    def test_missing_rekey_attribute_raises(self, three_relations):
        lineitem, orders, __ = three_relations
        inner = Pipeline([lineitem, orders], [], operator="HRJN*").top
        source = OperatorSource(inner, "nope", dimension=2)
        with pytest.raises(InstanceError):
            source.next()
