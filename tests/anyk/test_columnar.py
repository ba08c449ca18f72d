"""What the columnar DP added: content-only views built once per relation,
objects only where the enumeration walks, an O(1) tie-batch head.

Bit-identity with the per-tuple DP is ``test_anyk_golden.py``'s job.
"""

from collections import deque

import numpy as np

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.anyk import dp as dp_module
from repro.anyk.dp import Group
from repro.core.scoring import SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.relation import relation as relation_module
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

    def test_every_view_is_the_same_object_on_every_call(self):
        relation, partner = self.relation(), self.partner()
        views = [
            relation.scored, relation.identities, relation.fingerprint,
            lambda: relation.key_codes(("x",)),
            lambda: relation.joint_key_codes(partner, ("x",)),
            lambda: relation.link(partner, ("x",)),
        ]
        first = [view() for view in views]
        assert all(view() is held for view, held in zip(views, first))
        assert relation.scored()[0] is relation.tuples


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
