"""AnyKRankJoin correctness and any-k-specific stepping.

The contract every resumable operator shares is the matrix in
``tests/core/test_resumable.py`` (rows ``AnyK`` and ``AnyK-chain``).
"""

import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin, anyk_operator
from repro.core.naive import naive_top_k, top_scores
from repro.core.operators import make_operator, multiway_rank_join
from repro.core.scoring import AverageScore, SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.relation.relation import Relation, tuple_identity
from repro.service.query import QuerySpec
from tests.chain_oracle import brute_force, chain_combos


def relation(name, rows):
    return Relation(
        name,
        [
            RankTuple(key=i, scores=scores, payload=dict(payload))
            for i, (payload, scores) in enumerate(rows)
        ],
    )


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
        anyk = AnyKRankJoin(AnyKQuery(chain4, attrs))
        reference = multiway_rank_join(list(chain4), attrs, SumScore())
        anyk_scores = [r.score for r in anyk]
        ref_scores = [r.score for r in reference]
        assert anyk_scores == ref_scores

    def test_chain4_matches_brute_force(self, chain4):
        query = AnyKQuery(chain4, ["x", "y", "z"])
        got = [r.score for r in AnyKRankJoin(query)]
        expected = brute_force(query.relations, query.join_attrs, SumScore())
        assert got == pytest.approx(expected)

    def test_a_chain_that_reuses_an_attribute_gets_every_answer(self):
        # R0.x = R1.x, R1.y = R2.y, R2.x = R3.x: each link on its own,
        # not one variable x shared by R0, R1, R2 and R3.
        chain = (
            relation("R0", [({"x": 1}, (0.9,)), ({"x": 2}, (0.4,))]),
            relation("R1", [({"x": 1, "y": 5}, (0.8,)), ({"x": 2, "y": 6}, (0.3,))]),
            relation("R2", [({"x": 3, "y": 5}, (0.7,)), ({"x": 2, "y": 6}, (0.2,))]),
            relation("R3", [({"x": 3}, (0.6,)), ({"x": 2}, (0.1,))]),
        )
        attrs = ("x", "y", "x")
        combos = chain_combos(chain, attrs)
        expected = brute_force(chain, attrs, SumScore())
        assert expected == [3.0000000000000004, 0.9999999999999999]
        for algorithm in ("anyk", "pbrj"):
            spec = QuerySpec(chain, 10, join_attrs=attrs, algorithm=algorithm)
            results = spec.build_operator().top_k(10)
            assert [r.score for r in results] == expected, algorithm
            assert sorted(
                tuple(map(tuple_identity, r.tuples)) for r in results
            ) == sorted(tuple(map(tuple_identity, combo)) for combo in combos)

    def test_nary_results_expose_relation_ordered_tuples(self, chain4):
        anyk = AnyKRankJoin(AnyKQuery(chain4, ["x", "y", "z"]))
        result = anyk.get_next()
        assert len(result.tuples) == 4
        # Components come back in query-relation order, not in the order
        # the enumeration walks the path from its root.
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
        op = AnyKRankJoin(AnyKQuery(chain4, ["x", "y", "z"]))
        op.get_next()
        assert op.depths() == [3, 3, 3, 2]
