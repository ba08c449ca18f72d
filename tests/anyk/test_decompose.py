"""The path join tree of a chain query, and query validation."""

import pytest

from repro.anyk import AnyKQuery, KEY_ATTR, decompose
from repro.core.scoring import MinScore, ProductScore, SumScore
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.relation.relation import Relation


def relation(name, rows):
    """rows: list of (payload dict, scores tuple)."""
    return Relation(
        name,
        [
            RankTuple(key=i, scores=scores, payload=dict(payload))
            for i, (payload, scores) in enumerate(rows)
        ],
    )


def keyed(name, pairs):
    """pairs: list of (key, score)."""
    return Relation(name, [RankTuple(key=k, scores=(s,)) for k, s in pairs])


@pytest.fixture
def chain3():
    a = relation("A", [({"x": 1}, (0.9,)), ({"x": 2}, (0.5,))])
    b = relation("B", [({"x": 1, "y": 7}, (0.8,)), ({"x": 2, "y": 8}, (0.6,))])
    c = relation("C", [({"y": 7}, (0.4,)), ({"y": 8}, (0.3,))])
    return a, b, c


class TestQueryValidation:
    def test_needs_two_relations(self):
        r = keyed("R", [(1, 0.5)])
        with pytest.raises(InstanceError, match="two relations"):
            AnyKQuery((r,), ())

    def test_needs_a_condition(self):
        r, s = keyed("R", [(1, 0.5)]), keyed("S", [(1, 0.5)])
        with pytest.raises(InstanceError, match="need 1 join attributes"):
            AnyKQuery((r, s), ())

    def test_rejects_out_of_range_index(self):
        # A second link would join S to a third relation that is not there.
        r, s = keyed("R", [(1, 0.5)]), keyed("S", [(1, 0.5)])
        with pytest.raises(InstanceError, match="need 1 join attributes"):
            AnyKQuery((r, s), ("x", "y"))

    def test_rejects_empty_attribute(self):
        r, s = keyed("R", [(1, 0.5)]), keyed("S", [(1, 0.5)])
        with pytest.raises(InstanceError, match="non-empty"):
            AnyKQuery((r, s), ("",))

    def test_chain_arity_check(self, chain3):
        with pytest.raises(InstanceError, match="need 2 join attributes"):
            AnyKQuery.chain(chain3, ["x"])


class TestAcyclicDecomposition:
    def test_binary_is_two_nodes_width_one(self):
        left = keyed("L", [(1, 0.9), (2, 0.1)])
        right = keyed("R", [(1, 0.8)])
        tree = decompose(AnyKQuery.binary(left, right))
        assert tree.root.index == 1
        assert [child.index for child in tree.root.children] == [0]
        assert not tree.root.children[0].children
        # Binary joins connect on the key sentinel.
        assert tree.root.child_attrs == [(KEY_ATTR,)]

    def test_chain_is_a_path_of_singletons(self, chain3):
        tree = decompose(AnyKQuery.chain(chain3, ["x", "y"]))
        path, node = [tree.root.index], tree.root
        while node.children:
            assert len(node.children) == 1
            node = node.children[0]
            path.append(node.index)
        assert path == [2, 1, 0]
        assert [n.index for n in tree.postorder] == [0, 1, 2]

    def test_every_relation_appears_exactly_once(self, chain3):
        tree = decompose(AnyKQuery.chain(chain3, ["x", "y"]))
        seen = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            seen.append(node.index)
            stack.extend(node.children)
        assert sorted(seen) == [0, 1, 2]

    def test_each_link_joins_on_its_own_attribute(self):
        rows = [({"x": 1, "y": 1}, (0.5,))]
        chain = [relation(name, rows) for name in "ABCD"]
        tree = decompose(AnyKQuery.chain(chain, ["x", "y", "x"]))
        assert [n.child_attrs for n in tree.postorder] == [
            [], [("x",)], [("y",)], [("x",)],
        ]


class TestRejections:
    @pytest.mark.parametrize("scoring", [MinScore(), ProductScore()])
    def test_non_additive_scoring_is_rejected(self, scoring, chain3):
        query = AnyKQuery.chain(chain3, ["x", "y"])
        with pytest.raises(InstanceError, match="additive"):
            decompose(query, scoring)

    def test_sum_score_is_accepted(self, chain3):
        tree = decompose(AnyKQuery.chain(chain3, ["x", "y"]), SumScore())
        assert len(tree.postorder) == 3
