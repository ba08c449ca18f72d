"""The path join tree of a chain query, and query validation."""

import numpy as np
import pytest

from repro.anyk import AnyKQuery, KEY_ATTR, decompose
from repro.anyk.jointree import relation_weights
from repro.core.scoring import (
    AverageScore,
    MinScore,
    ProductScore,
    SumScore,
    WeightedSum,
)
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
            AnyKQuery(chain3, ["x"])


def codes(relation, attr):
    """``relation``'s key codes on ``attr``, as plain lists."""
    values, row_codes = relation.key_codes((attr,))
    return values, row_codes.tolist()


def as_lists(keys):
    return None if keys is None else (keys[0], keys[1].tolist())


class TestAcyclicDecomposition:
    def test_binary_is_two_nodes_width_one(self):
        left = keyed("L", [(1, 0.9), (2, 0.1)])
        right = keyed("R", [(1, 0.8)])
        leaf, root = decompose(AnyKQuery.binary(left, right))
        assert (leaf.index, root.index) == (0, 1)
        # Binary joins connect on the key sentinel.
        assert leaf.child_keys is None
        assert as_lists(root.child_keys) == codes(right, KEY_ATTR)
        assert as_lists(leaf.parent_keys) == codes(left, KEY_ATTR)
        # The root's parent keys are one empty connection value.
        assert as_lists(root.parent_keys) == ([()], [0])

    def test_chain_is_a_path_of_singletons(self, chain3):
        nodes = decompose(AnyKQuery(chain3, ["x", "y"]))
        assert [n.index for n in nodes] == [0, 1, 2]
        for node, relation in zip(nodes, chain3):
            assert len(node) == len(relation.tuples)
            assert node.rows == relation.scored()[0]

    def test_every_relation_appears_exactly_once(self, chain3):
        nodes = decompose(AnyKQuery(chain3, ["x", "y"]))
        assert len({id(node) for node in nodes}) == 3
        assert sorted(node.index for node in nodes) == [0, 1, 2]

    def test_each_link_joins_on_its_own_attribute(self):
        rows = [({"x": 1, "y": 2}, (0.5,)), ({"x": 3, "y": 2}, (0.4,))]
        chain = [relation(name, rows) for name in "ABCD"]
        assert codes(chain[0], "x") != codes(chain[0], "y")
        attrs = ["x", "y", "x"]
        nodes = decompose(AnyKQuery(chain, attrs))
        assert nodes[0].child_keys is None
        for i in (1, 2, 3):
            # Node i's codes toward node i - 1 are relation i's on link i - 1,
            # and node i - 1's toward its parent are its own on that link.
            assert as_lists(nodes[i].child_keys) == codes(chain[i], attrs[i - 1])
            assert as_lists(nodes[i - 1].parent_keys) == codes(
                chain[i - 1], attrs[i - 1])


class TestRejections:
    @pytest.mark.parametrize("scoring", [MinScore(), ProductScore()])
    def test_non_additive_scoring_is_rejected(self, scoring, chain3):
        query = AnyKQuery(chain3, ["x", "y"])
        with pytest.raises(InstanceError, match="additive"):
            decompose(query, scoring)

    def test_sum_score_is_accepted(self, chain3):
        nodes = decompose(AnyKQuery(chain3, ["x", "y"]), SumScore())
        assert len(nodes) == 3


class TestRelationWeights:
    """Each relation's weights are ``S`` of its rows padded with zeros."""

    @staticmethod
    def padded_batch(scoring, relations):
        """The definition: ``S(0…0 ⊕ b(τ) ⊕ 0…0)`` through ``batch``."""
        total = sum(r.dimension for r in relations)
        out, offset = [], 0
        for r in relations:
            matrix = r.scored()[1]
            padded = np.zeros((len(matrix), total))
            padded[:, offset:offset + r.dimension] = matrix
            out.append(scoring.batch(padded))
            offset += r.dimension
        return out

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["sum", "weighted", "average"])
    def test_bit_identical_to_the_padded_batch(self, kind, seed):
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 4, size=rng.integers(2, 5))
        relations = tuple(
            Relation(f"R{i}", [
                RankTuple(key=j, scores=tuple(rng.random(dim)))
                for j in range(int(rng.integers(1, 40)))
            ])
            for i, dim in enumerate(dims)
        )
        scoring = {
            "sum": SumScore(),
            "weighted": WeightedSum(rng.random(int(dims.sum())) * 3.0),
            "average": AverageScore(),
        }[kind]
        ours = relation_weights(scoring, relations)
        expected = self.padded_batch(scoring, relations)
        assert [w.view(np.int64).tolist() for w in ours] == [
            w.view(np.int64).tolist() for w in expected
        ]
