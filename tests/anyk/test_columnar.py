"""What the columnar DP added: content-only views with snapshot lifetime,
objects only where the enumeration walks, an O(1) tie-batch head.

Bit-identity with the per-tuple DP is ``test_anyk_golden.py``'s job.
"""

from collections import deque

import numpy as np
import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.anyk import dp as dp_module
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
from repro.relation import relation as relation_module
from repro.relation.relation import Relation, tuple_identity
from tests.chain_oracle import brute_force


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


MUTATIONS = [
    lambda rel, tup: rel.tuples.append(tup),
    lambda rel, tup: rel.tuples.__setitem__(0, tup),
    lambda rel, tup: setattr(rel, "tuples", [tup, *rel.tuples[1:]]),
]
MUTATION_IDS = ["append", "setitem", "reassign"]


class TestRelationViews:
    def relation(self):
        return Relation("R", [
            RankTuple(key=2, scores=(0.5,), payload={"x": 1, "y": "a"}),
            RankTuple(key=1, scores=(0.5,), payload={"x": 2, "y": "a"}),
            RankTuple(key=2, scores=(0.5,), payload={"x": 1, "y": "a"}),
            RankTuple(key=1, scores=(0.25,), payload={"x": 1.0, "y": "b"}),
        ])

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

    def partner(self):
        return Relation("P", [
            RankTuple(key=0, scores=(0.5,), payload={"x": 1}),
            RankTuple(key=1, scores=(0.5,), payload={"x": 3}),
            RankTuple(key=2, scores=(0.5,), payload={"x": 2}),
        ])

    def test_a_link_groups_the_survivors_and_points_the_parent_at_them(self):
        relation, partner = self.relation(), self.partner()
        link = relation.link(partner, ("x",))
        assert relation.link(partner, ("x",)) is link
        # Codes of x: 1 -> 0 (rows 0, 2, 3), 2 -> 1 (row 1).
        assert link.rows.tolist() == [0, 2, 3, 1]
        assert link.bounds.tolist() == [0, 3, 4]
        assert link.parent_gids.tolist() == [0, -1, 1]
        # Rows that found no partner below are left out.
        survivors = relation.link(partner, ("x",), np.array([-1, 0, 4, -1]))
        assert survivors.rows.tolist() == [2, 1]
        assert survivors.bounds.tolist() == [0, 1, 2]
        assert relation.link(partner, ("x",)) is not link  # the newest only

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=MUTATION_IDS)
    def test_one_hook_drops_all_four_views(self, mutate):
        relation, partner = self.relation(), self.partner()
        held = (relation.scored(), relation.identities(),
                relation.key_codes(("x",)), relation.link(partner, ("x",)))
        before = [list(held[1]), np.array(held[2][1]), np.array(held[3].rows)]
        mutate(relation, RankTuple(key=9, scores=(1.0,), payload={"x": 7, "y": "c"}))
        assert relation.scored() is not held[0]
        assert relation.identities() is not held[1]
        assert relation.key_codes(("x",)) is not held[2]
        assert relation.link(partner, ("x",)) is not held[3]
        assert (7,) in relation.key_codes(("x",))[0]
        assert len(relation.identities()) == len(relation.tuples)
        # What a running query holds is replaced, never edited.
        assert held[1] == before[0]
        assert held[2][1].tolist() == before[1].tolist()
        assert held[3].rows.tolist() == before[2].tolist()

        # The link depends on its parent too: a change there drops it.
        relation, partner = self.relation(), self.partner()
        held = relation.link(partner, ("x",))
        before = held.parent_gids.tolist()
        mutate(partner, RankTuple(key=9, scores=(1.0,), payload={"x": 2}))
        fresh = relation.link(partner, ("x",))
        assert fresh is not held
        assert held.parent_gids.tolist() == before
        assert fresh.parent_gids.tolist() == [
            {1: 0, 2: 1}.get(t.payload["x"], -1) for t in partner.tuples]


class TestQueriesAfterAMutation:
    """A query reads the link structure of the content it starts on."""

    SCORING = SumScore()

    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("mutate", MUTATIONS, ids=MUTATION_IDS)
    def test_a_binary_query_answers_like_the_naive_join(self, mutate, side):
        instance = random_instance(
            n_left=40, n_right=40, e_left=1, e_right=1, num_keys=5, k=5,
            seed=4, scoring=self.SCORING,
        )
        relations = [instance.left, instance.right]
        AnyKRankJoin(AnyKQuery.binary(*relations), self.SCORING).top_k(5)
        key = relations[1 - side].tuples[0].key
        mutate(relations[side], RankTuple(key=key, scores=(1.0,)))
        everything = len(relations[0]) * len(relations[1])
        answer = AnyKRankJoin(AnyKQuery.binary(*relations), self.SCORING).top_k(everything)
        assert [r.score for r in answer] == top_scores(naive_top_k(
            relations[0].tuples, relations[1].tuples, self.SCORING, everything))

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=MUTATION_IDS)
    def test_a_change_at_the_leaf_regroups_every_link_above(self, mutate):
        def rel(name, rows):
            return Relation(name, [RankTuple(key=i, scores=(s,), payload=p)
                                   for i, (p, s) in enumerate(rows)])

        a = rel("A", [({"x": 1}, 0.9), ({"x": 1}, 0.2)])
        b = rel("B", [({"x": 1, "y": 7}, 0.8), ({"x": 2, "y": 8}, 0.6)])
        c = rel("C", [({"y": 7}, 0.4), ({"y": 8}, 0.3)])
        query = AnyKQuery((a, b, c), ("x", "y"))
        assert len(AnyKRankJoin(query, self.SCORING).top_k(10)) == 2
        # B's x = 2 row finds a partner now, so C's y = 8 row does too.
        mutate(a, RankTuple(key=5, scores=(0.5,), payload={"x": 2}))
        answer = AnyKRankJoin(query, self.SCORING).top_k(10)
        assert [r.score for r in answer] == brute_force((a, b, c), ("x", "y"), self.SCORING)
        assert any(r.tuples[2].payload == {"y": 8} for r in answer)


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
        structure = [(node.rows_by_group, node.bounds, node.child_gids)
                     for node in operator._dp.nodes]
        copies = [[None if a is None else a.tolist() for a in arrays]
                  for arrays in structure]
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
        # It kept the join structure of its own snapshot, unedited.
        for node, arrays, copy in zip(operator._dp.nodes, structure, copies):
            assert (node.rows_by_group, node.bounds, node.child_gids) == arrays
            assert [None if a is None else a.tolist() for a in arrays] == copy

        # The next query reads the new content through fresh views.
        fresh = AnyKRankJoin(AnyKQuery.binary(left, right), self.SCORING)
        answer = [r.score for r in fresh.top_k(5)]
        assert answer == top_scores(
            naive_top_k(left.tuples, right.tuples, self.SCORING, 5))
        assert answer != [score for score, _ in reference[:5]]
        assert fresh.depths()[0] == len(untouched[0]) + 1
        assert fresh._dp.nodes[0].rows_by_group is not structure[0][0]
        assert fresh._dp.nodes[1].child_gids is not structure[1][2]


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

    def test_a_query_prepares_nothing_twice_and_orders_only_what_it_walks(
            self, monkeypatch):
        links, groups, orderings = 0, 0, []
        link, init = relation_module.Link, Group.__init__

        def counting_link(*args):
            nonlocal links
            links += 1
            return link(*args)

        def counting_init(self, *args):
            nonlocal groups
            groups += 1
            init(self, *args)

        class CountingNumpy:
            """numpy as the DP sees it, counting the orderings it makes."""

            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, keys, *args, **kwargs):
                orderings.append(len(keys))
                return np.argsort(keys, *args, **kwargs)

        monkeypatch.setattr(relation_module, "Link", counting_link)
        monkeypatch.setattr(Group, "__init__", counting_init)
        monkeypatch.setattr(dp_module, "np", CountingNumpy())
        query, scoring = harness_query()
        operator = AnyKRankJoin(query, scoring)
        assert len(operator.top_k(10)) == 10
        assert links == 1
        # One ordering per group the enumeration reached (9 lineitem
        # groups and the orders root), none of a whole node.
        assert len(orderings) == groups == 10
        leaf, root = operator._dp.nodes
        assert max(orderings) < len(root) < len(leaf)

        # A second cold top-10 over the same pair, new weights.
        links, groups, orderings = 0, 0, []
        operator = AnyKRankJoin(query, WeightedSum([1.0, 0.5, 1.0, 2.0]))
        assert len(operator.top_k(10)) == 10
        assert links == 0
        assert len(orderings) == groups <= 10
        assert max(orderings) < len(root)

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
