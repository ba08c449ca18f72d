"""Sorted access is prepared once and is exact.

The vectorised order (one ``batch`` pass + stable argsort) must be the
order ``sorted(key=S̄, reverse=True)`` gave, row for row, and the ``S̄`` the
scan carries must be the scalar value bit for bit — the bounds compare
against it.  A relation's rows never change, so each view is built once.
"""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.core.bounds import BoundContext
from repro.core.naive import full_join, naive_top_k, top_scores
from repro.core.operators import make_components, make_operator
from repro.core.pbrj import result_identity
from repro.core.scoring import (
    AverageScore,
    CallableScore,
    MinScore,
    ProductScore,
    SumScore,
    WeightedSum,
)
from repro.core.tuples import RankTuple
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.errors import InstanceError
from repro.kernels import PointSet
from repro.relation.relation import KEY_ATTR, RankJoinInstance, Relation, tuple_identity
from repro.relation.sources import SortedScan

# A coarse grid with 0/1 coordinates: duplicates and exact S̄ ties are the
# common case; the last two values make sums that round differently
# depending on association.
coordinate = st.sampled_from([0.0, 1.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1 / 3, 0.1 + 0.2])
weight = st.sampled_from([0.0, 1.0, 0.3, 0.7, 1.0 + 1e-6, 2.5])


def scorings(total: int):
    return st.one_of(
        st.just(SumScore()),
        st.lists(weight, min_size=total, max_size=total).map(WeightedSum),
        st.just(AverageScore()),
        st.just(MinScore()),
        st.just(ProductScore()),
        st.just(CallableScore(lambda v: max(v) + 0.5 * min(v), name="max+min/2")),
    )


@st.composite
def instances(draw):
    dims = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    relations = []
    for name, e in zip("LR", dims):
        rows = draw(st.lists(
            st.tuples(st.integers(0, 3), st.tuples(*[coordinate] * e)), max_size=12
        ))
        relation = Relation(name, [RankTuple(key, scores) for key, scores in rows])
        relation.dimension = e  # an empty draw keeps its side's width
        relations.append(relation)
    scoring = draw(scorings(sum(dims)))
    return RankJoinInstance(relations[0], relations[1], scoring, 3)


def scalar_bound(instance, side):
    """``S̄`` as the parent's sort key wrote it: ``S(b ⊕ 1…1)``, scalar."""
    before = (1.0,) * (instance.dims[0] if side else 0)
    after = (1.0,) * (0 if side else instance.dims[1])
    return lambda tup: instance.scoring(before + tup.scores + after)


def drain(scan):
    pairs = []
    while (pulled := scan.next_scored()) is not None:
        pairs.append(pulled)
    return pairs


class TestVectorisedOrderIsTheSortedOrder:
    @given(instance=instances())
    @settings(max_examples=150, deadline=None)
    def test_order_and_carried_bounds(self, instance):
        for side, relation in enumerate((instance.left, instance.right)):
            key = scalar_bound(instance, side)
            expected = sorted(relation.tuples, key=key, reverse=True)
            ordered = instance.sorted_tuples(side)
            assert len(ordered) == len(expected)
            assert all(a is b for a, b in zip(ordered, expected))
            assert instance.sorted_bounds(side).tolist() == [key(t) for t in expected]
            assert [instance.score_bound(side, t.scores) for t in expected] == [
                key(t) for t in expected
            ]
            pairs = drain(instance.scans()[side])
            assert all(a is b for (a, _), b in zip(pairs, expected))
            assert [bound for _, bound in pairs] == [key(t) for t in expected]

    @given(instance=instances(), chunk=st.sampled_from([1, 2, 3, 7]))
    @settings(max_examples=60, deadline=None)
    def test_scan_is_chunk_size_independent(self, instance, chunk):
        reference = [drain(scan) for scan in instance.scans()]
        original = SortedScan.chunk
        SortedScan.chunk = chunk
        try:
            for side, scan in enumerate(instance.scans()):
                assert len(scan) == len(reference[side])
                pulled = []
                while scan.has_next():
                    remaining = scan.remaining
                    # next() and next_scored() walk the same sequence.
                    if len(pulled) % 2:
                        pulled.append(scan.next_scored())
                    else:
                        pulled.append((scan.next(), None))
                    assert scan.remaining == remaining - 1
                assert scan.next() is None and scan.next_scored() is None
                assert scan.depth == len(reference[side])
                for (tup, bound), (ref_tup, ref_bound) in zip(pulled, reference[side]):
                    assert tup is ref_tup
                    assert bound is None or bound == ref_bound
        finally:
            SortedScan.chunk = original

    @given(instance=instances())
    @settings(max_examples=60, deadline=None)
    def test_batch_is_exact(self, instance):
        for relation in (instance.left, instance.right):
            matrix = relation.scored()[1]
            padded = np.ones((len(matrix), sum(instance.dims)))
            padded[:, : matrix.shape[1]] = matrix
            if isinstance(instance.scoring, WeightedSum):
                with pytest.raises(ValueError):
                    instance.scoring.batch(padded[:, :-1])
            assert instance.scoring.batch(padded).tolist() == [
                instance.scoring(tuple(row)) for row in padded.tolist()
            ]

    def test_sorted_tuples_is_a_list(self):
        instance = lineitem_orders_instance(WorkloadParams(e=2, scale=0.0002, seed=1))
        ordered = instance.sorted_tuples(0)
        assert isinstance(ordered, list) and ordered is instance.sorted_tuples(0)
        assert len(ordered) == len(instance.left)
        assert ordered[3:5] == [ordered[3], ordered[4]]
        assert ordered[-1] is ordered[len(ordered) - 1]

    def test_empty_and_single_tuple_relations(self):
        lone = Relation("one", [RankTuple(1, (0.5, 0.5))])
        empty = Relation("none", [])
        for left, right in ((lone, empty), (empty, lone), (empty, empty), (lone, lone)):
            instance = RankJoinInstance(left, right, SumScore(), 1)
            assert [len(instance.sorted_tuples(s)) for s in (0, 1)] == [
                len(left), len(right)
            ]
            assert top_scores(make_operator("HRJN*", instance).top_k(1)) == (
                top_scores(naive_top_k(left.tuples, right.tuples, SumScore(), 1))
            )

    def test_score_elements_are_python_floats(self):
        scores = np.array([[0.25, 1], [0.5, 0]])
        built = Relation.from_arrays("a", [1, 2], scores)
        wrapped = RankTuple(1, tuple(scores[0]))  # numpy scalars in a tuple
        listed = RankTuple(1, [1, 0])
        for tup in (*built.tuples, wrapped, listed):
            assert all(type(s) is float for s in tup.scores)
        assert wrapped.scores == (0.25, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scores_are_refused(self, bad):
        rows = [RankTuple(0, (0.5, 0.5)), RankTuple(1, (0.5, bad))]
        relation = Relation("dirty", rows)
        with pytest.raises(InstanceError, match=r"'dirty'.*row 1, column 1"):
            RankJoinInstance(relation, relation, SumScore(), 1)
        with pytest.raises(InstanceError, match="dirty"):
            AnyKRankJoin(AnyKQuery.binary(relation, relation), SumScore())

    def test_out_of_range_scores_are_refused(self):
        # Found by a seeded random search: every bound takes 1 as a score's
        # ceiling, so with 2.0 on the right HRJN* emitted 1.9593 and 1.9033
        # before the true top result 2.0341 — a wrong answer, silently.
        left = Relation("L", [RankTuple(3, (0.01, 0.9)), RankTuple(1, (0.95, 0.29))])
        right = Relation("over", [
            RankTuple(3, (2.0, 0.08)), RankTuple(1, (1.51, 0.68)),
            RankTuple(1, (1.71, 0.08)),
        ])
        scoring = WeightedSum([0.65, 0.82, 0.64, 0.12])
        with pytest.raises(
            InstanceError, match=r"'over': score 2\.0 outside \[0, 1\] at row 0, column 0"
        ):
            make_operator("HRJN*", RankJoinInstance(left, right, scoring, 3)).top_k(3)
        with pytest.raises(InstanceError, match="score -0.5 outside"):
            Relation("under", [RankTuple(0, (0.5, -0.5))]).scored()
        # The bounds of the range are scores.
        Relation("edge", [RankTuple(0, (0.0, 1.0))]).scored()


def tie_relations():
    """Two small relations whose join is mostly exact-score ties."""
    left = Relation("L", [
        RankTuple(i % 2, (0.5, 0.25), {"tag": f"l{i}"}) for i in range(4)
    ] + [RankTuple(0, (0.25, 0.5), {"tag": "l4"})])
    right = Relation("R", [
        RankTuple(i % 2, (0.25, 0.5), {"tag": f"r{i}"}) for i in range(4)
    ])
    return left, right


def canonical_top_k(left, right, scoring, k):
    results = full_join(left.tuples, right.tuples, scoring)
    return sorted(results, key=lambda r: (-r.score, result_identity(r)))[:k]


def anyk_answer(left, right, scoring, k):
    results = AnyKRankJoin(AnyKQuery.binary(left, right), scoring).top_k(k)
    return [(r.score, result_identity(r)) for r in results]


class TestViewsDieWithTheContent:
    """A view lives exactly as long as the relation it was built from."""

    def test_identities_are_tuple_identity(self):
        left, right = tie_relations()
        for relation in (left, right):
            assert relation.identities() is relation.identities()
            assert relation.identities() == [tuple_identity(t) for t in relation.tuples]

    def test_anyk_ties_follow_the_canonical_order(self):
        left, right = tie_relations()
        scoring = SumScore()
        expected = canonical_top_k(left, right, scoring, 8)
        assert len({r.score for r in expected}) < len(expected)  # ties present
        assert top_scores(expected) == top_scores(
            naive_top_k(left.tuples, right.tuples, scoring, 8)
        )
        assert anyk_answer(left, right, scoring, 8) == [
            (r.score, result_identity(r)) for r in expected
        ]

    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    def test_the_joint_code_space_follows_both_contents(self, side):
        """Built once per pair; it decodes both sides' keys, a right-only
        one included, and FRPA over a pair sharing a fresh top key answers
        like the naive join."""
        rows = [list(relation.tuples) for relation in tie_relations()]
        key = max(t.key for side_rows in rows for t in side_rows) + 1  # a new key value
        rows[side].append(RankTuple(key, (1.0, 1.0)))
        rows[1 - side].append(RankTuple(key, (1.0, 0.5)))
        rows[1].append(RankTuple(key + 1, (0.1, 0.1)))  # only the right holds it
        left, right = Relation("L", rows[0]), Relation("R", rows[1])
        codes = left.joint_key_codes(right, (KEY_ATTR,))
        assert left.joint_key_codes(right, (KEY_ATTR,)) is codes
        size, mine, theirs = codes
        known = [value for (value,) in left.key_codes((KEY_ATTR,))[0]]
        assert size == len(known)
        assert [t.key for t in left.scored()[0]] == [known[code] for code in mine]
        assert [t.key for t in right.scored()[0]] == [
            known[code] if code < size else key + 1 for code in theirs]
        top = make_operator("FRPA", RankJoinInstance(left, right, SumScore(), 3)).top_k(3)
        assert top_scores(top) == top_scores(
            naive_top_k(left.tuples, right.tuples, SumScore(), 3))
        assert top[0].key == key  # the new pair


def cold_corner_instance(index, scoring_type=WeightedSum):
    """The ``cold_corner`` generator settings (benchmarks/harness/workloads.py)."""
    base = lineitem_orders_instance(WorkloadParams(
        e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0
    ))
    scoring = scoring_type([1.0, 1.0, 1.0, 1.0 + (index + 1) * 1e-6])
    return base.left, base.right, scoring


class CountingSum(WeightedSum):
    """Counts scalar calls and the rows handed to ``batch``."""

    calls = rows = 0

    def __call__(self, vector):
        self.calls += 1
        return super().__call__(vector)

    def batch(self, vectors):
        self.rows += len(vectors)
        return super().batch(vectors)


class TestAQueryPaysForWhatItReads:
    """A regression to per-tuple interpreted work at submit fails here."""

    def test_hrjn_scores_join_results_and_nothing_else(self):
        left, right, scoring = cold_corner_instance(0, CountingSum)
        instance = RankJoinInstance(left, right, scoring, 10)
        scoring.rows = 0  # sorted access: one S̄ per tuple, one batch per side
        operator = make_operator("HRJN*", instance)
        assert scoring.calls == scoring.rows == 0  # 0 per sorted tuple
        results = operator.top_k(10)
        depths = operator.depths()
        seen = [
            Counter(t.key for t in instance.sorted_tuples(side)[:depth])
            for side, depth in enumerate(depths)
        ]
        formed = sum(count * seen[1][key] for key, count in seen[0].items())
        assert len(results) == 10 and sum(depths) > formed > 10
        # 0 per pull; pairs read ahead by the last gallop at most 4x over.
        assert scoring.calls == 0
        assert formed <= scoring.rows <= 4 * formed

    def test_second_cold_anyk_query_recomputes_no_identity(self, monkeypatch):
        calls = []
        for module in list(sys.modules.values()):
            original = getattr(module, "_canonical_payload", None)
            if original is not None and getattr(module, "__name__", "").startswith("repro"):
                def counting(payload, original=original):
                    calls.append(payload)
                    return original(payload)
                monkeypatch.setattr(module, "_canonical_payload", counting)
        left, right, scoring = cold_corner_instance(0)
        first = AnyKRankJoin(AnyKQuery.binary(left, right), scoring).top_k(10)
        assert len(calls) == len(left) + len(right)
        del calls[:]
        left, right, scoring = left, right, cold_corner_instance(1)[2]
        second = AnyKRankJoin(AnyKQuery.binary(left, right), scoring).top_k(10)
        assert calls == []
        assert len(first) == len(second) == 10


class TestCarriedBoundIsTheComputedBound:
    @pytest.mark.parametrize("name", ["HRJN*", "PBRJ_FR^RR", "FRPA", "a-FRPA"])
    @pytest.mark.parametrize("scoring", [SumScore(), WeightedSum([0.3, 1.0, 0.7, 1.0 + 1e-6])])
    def test_two_and_three_argument_update_agree(self, name, scoring):
        base = lineitem_orders_instance(WorkloadParams(e=2, scale=0.0002, k=5, seed=2))
        instance = RankJoinInstance(base.left, base.right, scoring, 5)
        operator = make_operator(name, instance)
        depths, pulls = [0, 0], []
        while len(operator.emitted_results) < instance.k:
            if operator.try_next(max_pulls=1) is None:
                break
            for side in (0, 1):
                if operator.depth(side) > depths[side]:
                    depths[side] = operator.depth(side)
                    pulls.append((side, depths[side] - 1))
        assert len(pulls) == operator.pulls > 0

        def replay(carry):
            bound, _ = make_components(name)
            columns = (PointSet(instance.dims[0]), PointSet(instance.dims[1]))
            bound.bind(BoundContext(scoring, instance.dims, columns))
            values = []
            for side, position in pulls:
                tup = instance.sorted_tuples(side)[position]
                columns[side].append(tup.scores)
                if carry:
                    carried = float(instance.sorted_bounds(side)[position])
                    values.append(bound.update(side, tup, carried))
                else:
                    values.append(bound.update(side, tup))
            return values, bound.cover_recomputations

        assert replay(carry=True) == replay(carry=False)
