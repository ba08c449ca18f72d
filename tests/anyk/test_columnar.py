"""What the columnar DP added: content-only views with snapshot lifetime,
objects only where the enumeration walks, an O(1) tie-batch head.

Bit-identity with the per-tuple DP is ``test_anyk_golden.py``'s job.
"""

from collections import deque

import numpy as np
import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.anyk.dp import Group
from repro.core.naive import naive_top_k, top_scores
from repro.core.scoring import SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import (
    WorkloadParams,
    lineitem_orders_instance,
    random_instance,
)
from repro.relation.relation import Relation, tuple_identity


def drain(operator, quantum=None, limit=None):
    """What ``operator`` emits next (all of it, or ``limit`` results), as
    (score, identities) pairs."""
    emitted = []
    while limit is None or len(emitted) < limit:
        outcome = operator.try_next(max_pulls=quantum)
        if outcome is None:
            break
        if outcome is not PENDING:
            emitted.append((
                outcome.score,
                (tuple_identity(outcome.left), tuple_identity(outcome.right)),
            ))
    return emitted


class TestRelationViews:
    def relation(self):
        return Relation("R", [
            RankTuple(key=2, scores=(0.5,), payload={"x": 1, "y": "a"}),
            RankTuple(key=1, scores=(0.5,), payload={"x": 2, "y": "a"}),
            RankTuple(key=2, scores=(0.5,), payload={"x": 1, "y": "a"}),
            RankTuple(key=1, scores=(0.25,), payload={"x": 1.0, "y": "b"}),
        ])

    def test_identity_ranks_are_dense_and_shared_by_equal_identities(self):
        relation = self.relation()
        ranks = relation.identity_ranks()
        assert ranks is relation.identity_ranks()
        assert ranks.tolist() == [2, 1, 2, 0]
        identities = relation.identities()
        by_rank = sorted(range(4), key=lambda row: (ranks[row], row))
        assert by_rank == sorted(range(4), key=identities.__getitem__)

    def test_key_codes_decode_to_the_rows_values(self):
        relation = self.relation()
        values, codes = relation.key_codes(("x", "y"))
        assert relation.key_codes(("x", "y"))[1] is codes
        assert [values[code] for code in codes] == [
            (1, "a"), (2, "a"), (1, "a"), (1.0, "b")]
        assert len(values) == 3
        # Values that hash and compare equal are one key, as in a dict probe.
        assert relation.key_codes(("x",))[1].tolist() == [0, 1, 0, 0]
        assert relation.key_codes(("@key",))[0] == [(2,), (1,)]
        assert relation.key_codes(())[0] == [()]

    @pytest.mark.parametrize("mutate", [
        lambda rel, tup: rel.tuples.append(tup),
        lambda rel, tup: rel.tuples.__setitem__(0, tup),
        lambda rel, tup: setattr(rel, "tuples", [tup, *rel.tuples[1:]]),
    ], ids=["append", "setitem", "reassign"])
    def test_one_hook_drops_all_four_views(self, mutate):
        relation = self.relation()
        held = (relation.scored(), relation.identities(),
                relation.identity_ranks(), relation.key_codes(("x",)))
        before = [np.array(held[2]), np.array(held[3][1])]
        mutate(relation, RankTuple(key=9, scores=(1.0,), payload={"x": 7, "y": "c"}))
        assert relation.scored() is not held[0]
        assert relation.identities() is not held[1]
        assert relation.identity_ranks() is not held[2]
        assert relation.key_codes(("x",)) is not held[3]
        assert (7,) in relation.key_codes(("x",))[0]
        assert len(relation.identity_ranks()) == len(relation.tuples)
        # What a running query holds is replaced, never edited.
        assert held[2].tolist() == before[0].tolist()
        assert held[3][1].tolist() == before[1].tolist()


class TestSnapshotIsolation:
    """A suspended operator finishes on the content it started on."""

    SCORING = WeightedSum([1.0, 1.0 + 1e-6])

    def relations(self):
        instance = random_instance(
            n_left=60, n_right=60, e_left=1, e_right=1, num_keys=6, k=5,
            seed=11, scoring=self.SCORING,
        )
        return instance.left, instance.right

    def mutate(self, left, right):
        left.tuples.append(RankTuple(key=right.tuples[0].key, scores=(1.0,)))
        patched = right.tuples[3]
        right.tuples[3] = RankTuple(patched.key, (0.999,), patched.payload)

    @pytest.mark.parametrize("suspend_after", ["mid-DP", "mid-enumeration"])
    def test_suspended_operator_keeps_its_snapshot(self, suspend_after):
        left, right = self.relations()
        untouched = [Relation(rel.name, list(rel.tuples)) for rel in (left, right)]
        reference = drain(AnyKRankJoin(AnyKQuery.binary(*untouched), self.SCORING))

        operator = AnyKRankJoin(AnyKQuery.binary(left, right), self.SCORING)
        emitted = []
        if suspend_after == "mid-DP":
            for _ in range(5):
                assert operator.try_next(max_pulls=7) is PENDING
            assert 0 < operator._dp.tuples_processed < len(left) + len(right)
        else:
            emitted = drain(operator, quantum=7, limit=3)
        self.mutate(left, right)
        assert emitted + drain(operator, quantum=7) == reference
        assert operator.depths()[0] == len(untouched[0])

        # The next query reads the new content through fresh views.
        fresh = AnyKRankJoin(AnyKQuery.binary(left, right), self.SCORING)
        answer = [r.score for r in fresh.top_k(5)]
        assert answer == top_scores(
            naive_top_k(left.tuples, right.tuples, self.SCORING, 5))
        assert answer != [score for score, _ in reference[:5]]
        assert fresh.depths()[0] == len(untouched[0]) + 1


def harness_query():
    scoring = WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6])
    instance = lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0),
        scoring=scoring,
    )
    return AnyKQuery.binary(instance.left, instance.right), scoring


class TestObjectsFollowTheEnumeration:
    """A regression to one object per input tuple fails here, not on a
    timing bar."""

    def test_cold_top10_builds_a_few_objects_per_result(self, monkeypatch):
        built = 0
        init = Group.__init__

        def counting(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(Group, "__init__", counting)
        query, scoring = harness_query()
        k = 10
        operator = AnyKRankJoin(query, scoring)
        assert built == 0  # none at submit
        assert len(operator.top_k(k)) == k
        assert operator._dp.tuples_processed == 3750
        assert 0 < built <= 4 * k

    def test_a_group_is_the_same_object_every_time_it_is_reached(self):
        query, scoring = harness_query()
        operator = AnyKRankJoin(query, scoring)
        operator.top_k(3)
        root = operator._dp.root_group
        assert root is operator._dp.root_group
        assert root.child(0) is root.child(0)


class TestTieBatchDrain:
    def test_the_batch_head_comes_off_without_shifting_the_rest(self):
        n = 40
        left = Relation("L", [RankTuple(key=0, scores=(0.5,))] * n)
        right = Relation("R", [RankTuple(key=0, scores=(0.5,))] * n)
        operator = AnyKRankJoin(AnyKQuery.binary(left, right), SumScore())
        assert operator.get_next().score == 1.0
        # One tie batch holds the whole join; a deque gives its head up in
        # O(1) (``list.pop(0)`` made this drain quadratic).
        assert isinstance(operator._batch, deque)
        pulls = operator.pulls
        for remaining in range(n * n - 1, 0, -1):
            assert len(operator._batch) == remaining
            assert operator.frontier() == 1.0
            assert operator.try_next(max_pulls=0).score == 1.0
        assert operator.pulls == pulls
        assert operator.get_next() is None
        assert operator.frontier() == float("-inf")
