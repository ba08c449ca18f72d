"""AnyKRankJoin correctness and any-k-specific stepping.

The contract every resumable operator shares is the matrix in
``tests/core/test_resumable.py`` (rows ``AnyK`` and ``AnyK-chain``).
"""

import itertools

import numpy as np
import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin, anyk_from_chain, anyk_operator
from repro.core.naive import naive_top_k, top_scores
from repro.core.operators import make_operator
from repro.core.scoring import AverageScore, SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.relation.relation import Relation


def relation(name, rows):
    return Relation(
        name,
        [
            RankTuple(key=i, scores=scores, payload=dict(payload))
            for i, (payload, scores) in enumerate(rows)
        ],
    )


def brute_force(query, scoring):
    """All join results by full enumeration, scores sorted descending."""
    results = []
    for combo in itertools.product(*[rel.tuples for rel in query.relations]):
        ok = True
        for a, b, attr in query.join_on:
            left = combo[a].key if attr == "@key" else combo[a].payload[attr]
            right = combo[b].key if attr == "@key" else combo[b].payload[attr]
            if left != right:
                ok = False
                break
        if ok:
            vector = tuple(s for t in combo for s in t.scores)
            results.append(scoring(vector))
    return sorted(results, reverse=True)


@pytest.fixture
def chain4():
    a = relation("A", [({"x": 1}, (0.9,)), ({"x": 2}, (0.5,)), ({"x": 1}, (0.2,))])
    b = relation(
        "B",
        [({"x": 1, "y": 7}, (0.8,)), ({"x": 2, "y": 8}, (0.6,)),
         ({"x": 1, "y": 8}, (0.1,))],
    )
    c = relation(
        "C",
        [({"y": 7, "z": 3}, (0.4,)), ({"y": 8, "z": 4}, (0.3,)),
         ({"y": 7, "z": 4}, (0.7,))],
    )
    d = relation("D", [({"z": 3}, (0.5,)), ({"z": 4}, (0.9,))])
    return a, b, c, d


class TestBinaryCorrectness:
    def test_matches_oracle_scores_exactly(self):
        instance = random_instance(
            n_left=120, n_right=120, e_left=2, e_right=2,
            num_keys=12, k=15, cut=0.5, seed=3,
        )
        op = anyk_operator(instance)
        got = [r.score for r in op.top_k(15)]
        expected = top_scores(
            naive_top_k(instance.left.tuples, instance.right.tuples,
                        instance.scoring, 15)
        )
        # Bit-identical, not approx: the engine re-scores every result
        # through the same scoring call the PBRJ family uses.
        assert got == expected

    def test_matches_frpa_bit_identically(self):
        instance = random_instance(
            n_left=150, n_right=150, e_left=1, e_right=1,
            num_keys=10, k=20, seed=7,
        )
        anyk_scores = [r.score for r in anyk_operator(instance).top_k(20)]
        frpa_scores = [r.score for r in make_operator("FRPA", instance).top_k(20)]
        assert anyk_scores == frpa_scores

    def test_full_drain_equals_join_size(self):
        instance = random_instance(
            n_left=80, n_right=80, e_left=1, e_right=1,
            num_keys=8, k=1, seed=0,
        )
        drained = list(anyk_operator(instance))
        assert len(drained) == instance.join_size()

    def test_tie_order_is_canonical(self):
        # Many exact ties: output must still be sorted and deterministic.
        left = Relation(
            "L", [RankTuple(key=i % 3, scores=(round((i % 5) / 5, 3),))
                  for i in range(30)]
        )
        right = Relation(
            "R", [RankTuple(key=i % 3, scores=(round((i % 5) / 5, 3),))
                  for i in range(30)]
        )
        query = AnyKQuery.binary(left, right)
        runs = []
        for __ in range(2):
            results = list(AnyKRankJoin(query, SumScore()))
            runs.append([(r.score, repr(r.left.key), repr(r.right.key))
                         for r in results])
        assert runs[0] == runs[1]
        scores = [row[0] for row in runs[0]]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("scoring", [
        SumScore(),
        WeightedSum([0.7, 0.3]),
        AverageScore(),
    ])
    def test_additive_scorings_match_oracle(self, scoring):
        instance = random_instance(
            n_left=60, n_right=60, e_left=1, e_right=1,
            num_keys=6, k=10, seed=5, scoring=scoring,
        )
        got = [r.score for r in anyk_operator(instance).top_k(10)]
        expected = top_scores(
            naive_top_k(instance.left.tuples, instance.right.tuples,
                        scoring, 10)
        )
        assert got == pytest.approx(expected, abs=1e-12)


class TestNaryCorrectness:
    def test_chain4_matches_multiway(self, chain4):
        attrs = ["x", "y", "z"]
        anyk = anyk_from_chain(chain4, attrs)
        from repro.core.multiway import multiway_rank_join

        reference = multiway_rank_join(list(chain4), attrs, SumScore())
        anyk_scores = [r.score for r in anyk]
        ref_scores = [r.score for r in reference]
        assert anyk_scores == ref_scores

    def test_chain4_matches_brute_force(self, chain4):
        query = AnyKQuery.chain(chain4, ["x", "y", "z"])
        got = [r.score for r in AnyKRankJoin(query)]
        assert got == pytest.approx(brute_force(query, SumScore()))

    def test_star3_matches_brute_force(self):
        center = relation(
            "hub",
            [({"x": 1, "y": 1}, (0.9,)), ({"x": 2, "y": 1}, (0.5,)),
             ({"x": 1, "y": 2}, (0.3,))],
        )
        s1 = relation("S1", [({"x": 1}, (0.4,)), ({"x": 2}, (0.8,))])
        s2 = relation("S2", [({"y": 1}, (0.6,)), ({"y": 2}, (0.2,))])
        query = AnyKQuery.star(center, [s1, s2], ["x", "y"])
        got = [r.score for r in AnyKRankJoin(query)]
        assert got == pytest.approx(brute_force(query, SumScore()))

    def test_triangle_matches_brute_force(self):
        a = relation(
            "A", [({"x": i % 3, "y": i % 2}, (i / 10,)) for i in range(6)]
        )
        b = relation(
            "B", [({"y": i % 2, "z": i % 3}, ((5 - i) / 10,)) for i in range(6)]
        )
        c = relation(
            "C", [({"z": i % 3, "x": i % 3}, (i / 12,)) for i in range(6)]
        )
        query = AnyKQuery(
            relations=(a, b, c),
            join_on=((0, 1, "y"), (1, 2, "z"), (0, 2, "x")),
        )
        got = [r.score for r in AnyKRankJoin(query)]
        assert got == pytest.approx(brute_force(query, SumScore()))

    def test_nary_results_expose_relation_ordered_tuples(self, chain4):
        anyk = anyk_from_chain(chain4, ["x", "y", "z"])
        result = anyk.get_next()
        assert len(result.tuples) == 4
        # Components come back in query-relation order regardless of the
        # internal join order the decomposition chose.
        assert [t.payload.get("x") is not None for t in result.tuples[:1]] == [True]


class TestResumability:
    def make(self, seed=2):
        instance = random_instance(
            n_left=90, n_right=90, e_left=1, e_right=1,
            num_keys=9, k=10, seed=seed,
        )
        return instance, anyk_operator(instance)

    def test_pending_is_falsy_and_repeated(self):
        __, op = self.make()
        first = op.try_next(max_pulls=1)
        assert first is PENDING
        assert not first

    def test_pull_accounting_is_monotone(self):
        __, op = self.make()
        previous = 0
        for __ in range(50):
            result = op.try_next(max_pulls=7)
            assert op.pulls >= previous
            previous = op.pulls
            if result is None:
                break

    def test_try_next_bounds_the_build_exactly(self):
        # The DP is bounded by the step, not by an operator budget.
        __, op = self.make()
        assert op.try_next(max_pulls=10) is PENDING
        assert op.pulls == 10


class TestFrontier:
    def test_frontier_is_conservative_then_exact(self):
        instance = random_instance(
            n_left=70, n_right=70, e_left=1, e_right=1,
            num_keys=7, k=5, seed=4,
        )
        op = anyk_operator(instance)
        assert op.frontier() == float("inf")
        scores = []
        while True:
            result = op.get_next()
            if result is None:
                break
            scores.append(result.score)
            # Every emitted result beats (or ties) whatever is left.
            assert op.frontier() <= result.score + 1e-9
        assert op.frontier() == float("-inf")
        assert scores == sorted(scores, reverse=True)

    def test_frontier_non_increasing(self):
        instance = random_instance(
            n_left=70, n_right=70, e_left=1, e_right=1,
            num_keys=7, k=5, seed=8,
        )
        op = anyk_operator(instance)
        op.get_next()
        previous = op.frontier()
        while op.get_next() is not None:
            current = op.frontier()
            assert current <= previous + 1e-9
            previous = current


class TestReporting:
    def test_depths_and_stats(self):
        instance = random_instance(
            n_left=50, n_right=40, e_left=1, e_right=1,
            num_keys=5, k=5, seed=1,
        )
        op = anyk_operator(instance)
        op.top_k(5)
        depths = op.depths()
        # The DP ingests both inputs completely.
        assert depths.left == 50 and depths.right == 40
        stats = op.stats()
        assert stats.operator == "AnyK"
        assert stats.results == 5
        assert stats.io_cost == 90.0
        assert stats.depths.sum_depths == 90

    def test_nary_depths_are_per_relation(self, chain4):
        op = anyk_from_chain(chain4, ["x", "y", "z"])
        op.get_next()
        assert op.depths() == [3, 3, 3, 2]

    def test_merged_bag_depths_count_input_tuples_not_bag_tuples(self):
        a = relation("A", [({"x": i % 3, "y": i % 2}, (i / 30,)) for i in range(30)])
        b = relation("B", [({"y": i % 2, "z": i % 3}, (i / 31,)) for i in range(30)])
        c = relation("C", [({"z": i % 3, "x": i % 3}, (i / 32,)) for i in range(30)])
        query = AnyKQuery(
            relations=(a, b, c),
            join_on=((0, 1, "y"), (1, 2, "z"), (0, 2, "x")),
        )
        op = AnyKRankJoin(query)
        assert op.tree.width == 2
        # A merged bag's members are read once, while it is materialized.
        merged = max(op.tree.postorder, key=lambda node: len(node.members))
        assert len(merged) > 30
        assert [op.depth(i) for i in merged.members] == [30, 30]
        op.get_next()
        assert op.depths() == [30, 30, 30]
        # Bag tuples stay the unit of work.
        assert op._dp.tuples_processed == len(merged) + 30
        assert op.stats().io_cost == 90.0

    @pytest.mark.parametrize("seed", range(5))
    def test_depths_never_exceed_the_inputs_on_random_cyclic_queries(self, seed):
        rng = np.random.default_rng(seed)
        # A 4-cycle: GYO stalls until a pair of edges is merged into a bag.
        attrs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        relations = tuple(
            relation(f"R{i}", [
                ({u: int(rng.integers(0, 3)), v: int(rng.integers(0, 3))},
                 (float(rng.integers(0, 5)) / 4,))
                for __ in range(int(rng.integers(5, 25)))
            ])
            for i, (u, v) in enumerate(attrs)
        )
        query = AnyKQuery(
            relations=relations,
            join_on=((0, 1, "b"), (1, 2, "c"), (2, 3, "d"), (3, 0, "a")),
        )
        op = AnyKRankJoin(query)
        assert op.tree.width > 1
        got = [r.score for r in op]
        assert got == pytest.approx(brute_force(query, SumScore()))
        for i, rel in enumerate(relations):
            assert op.depth(i) == len(rel)
