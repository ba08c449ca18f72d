"""Join-tree representation for ranked enumeration (any-k).

A :class:`JoinTree` is the evaluation plan of an any-k query: each
:class:`JoinTreeNode` is a *bag* covering one or more input relations,
edges are equi-joins on shared attribute names, and every node holds its
materialized :class:`NodeTuple` list (one entry per combination of member
tuples that agrees on the bag-internal join attributes).  Acyclic queries
decompose into singleton bags; simple cyclic queries get one merged bag
per broken cycle (see :mod:`repro.anyk.decompose`).

Join attributes are plain names resolved against tuple payload dicts;
the sentinel :data:`KEY_ATTR` names the :attr:`~repro.core.tuples.
RankTuple.key` column, so the paper's binary key-join is expressible in
the same vocabulary as the payload-attribute chains of the multiway
operator.

Scores: any-k's dynamic program needs the aggregate to *decompose* over
the inputs — ``S(b(τ1) ⊕ … ⊕ b(τn)) = Σ_i w_i(τ_i)`` up to float
rounding.  :func:`relation_weights` derives the per-tuple weights for
the additive family (:class:`~repro.core.scoring.SumScore`,
:class:`~repro.core.scoring.WeightedSum`,
:class:`~repro.core.scoring.AverageScore`) and rejects everything else
with a clear error.  DP weights order the enumeration only; every emitted
result recomputes its score through the scoring function on the full
concatenated vector, exactly like PBRJ and the multiway operator, so
scores are bit-identical across cores.
"""

from __future__ import annotations

import numpy as np

from repro.core.scoring import AverageScore, ScoringFunction, SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.relation.relation import Relation

#: Sentinel attribute name resolving to ``RankTuple.key`` (the binary
#: rank join's join column, which lives outside the payload dict).
KEY_ATTR = "@key"


def attr_value(tup: RankTuple, attr: str):
    """The value of join attribute ``attr`` on ``tup``.

    ``KEY_ATTR`` reads the tuple key; anything else reads the payload
    dict.  A missing attribute is a malformed query, reported eagerly.
    """
    if attr == KEY_ATTR:
        return tup.key
    payload = tup.payload
    if isinstance(payload, dict) and attr in payload:
        return payload[attr]
    raise InstanceError(
        f"tuple {tup.key!r} has no join attribute {attr!r} "
        f"(payload keys: {sorted(payload) if isinstance(payload, dict) else 'none'})"
    )


def relation_weights(
    scoring: ScoringFunction, relations: tuple[Relation, ...]
) -> list[list[float]]:
    """Per-relation lists of additive tuple weights ``w_i(τ)``, bag order.

    ``w_i(τ) = S(0…0 ⊕ b(τ) ⊕ 0…0)``: one exact ``batch`` pass per relation
    over its cached score matrix, laid out at the relation's offset in the
    concatenated vector (which fixes the weight slice it owns under
    :class:`WeightedSum`).  Adding 0.0 is exact, so these are the bits of
    the left-to-right partial sum over the relation's own coordinates.
    """
    total = sum(relation.dimension for relation in relations)
    if isinstance(scoring, WeightedSum):
        if len(scoring.weights) != total:
            raise InstanceError(
                f"WeightedSum has {len(scoring.weights)} weights but the "
                f"query concatenates {total} score coordinates"
            )
    elif not isinstance(scoring, (SumScore, AverageScore)):
        raise InstanceError(
            f"any-k needs an additive scoring function (SumScore, WeightedSum "
            f"or AverageScore); got {type(scoring).__name__}"
        )
    weights, offset = [], 0
    for relation in relations:
        matrix = relation.scored()[1]
        padded = np.zeros((len(matrix), total))
        padded[:, offset:offset + relation.dimension] = matrix
        weights.append(scoring.batch(padded).tolist())
        offset += relation.dimension
    return weights


class NodeTuple:
    """One bag tuple: member-relation tuples plus its additive weight."""

    __slots__ = ("components", "weight", "identity")

    def __init__(
        self,
        components: tuple[RankTuple, ...],
        weight: float,
        identity: tuple[tuple, ...],
    ) -> None:
        self.components = components
        self.weight = weight
        #: Deterministic tie-break key (content only, discovery-free): one
        #: :func:`~repro.relation.relation.tuple_identity` per component,
        #: read from :meth:`Relation.identities`, never recomputed per query.
        self.identity = identity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ",".join(repr(t.key) for t in self.components)
        return f"NodeTuple([{keys}], w={self.weight:.4f})"


class JoinTreeNode:
    """One bag of the join tree with its materialized tuples."""

    __slots__ = (
        "members",
        "varset",
        "tuples",
        "children",
        "child_attrs",
        "parent_attrs",
        "_positions",
    )

    def __init__(
        self,
        members: tuple[int, ...],
        varset: frozenset[str],
        tuples: list[NodeTuple],
        attr_positions: dict[str, int],
    ) -> None:
        #: Relation indices this bag covers, in query order.
        self.members = members
        self.varset = varset
        self.tuples = tuples
        self.children: list[JoinTreeNode] = []
        #: Shared join attributes per child edge (sorted, aligned with
        #: :attr:`children`).
        self.child_attrs: list[tuple[str, ...]] = []
        #: Shared attributes toward the parent; ``None`` for the root.
        self.parent_attrs: tuple[str, ...] | None = None
        #: attr name -> component position providing it.
        self._positions = attr_positions

    def connection(self, node_tuple: NodeTuple, attrs: tuple[str, ...]) -> tuple:
        """The value tuple of ``attrs`` on ``node_tuple`` (the group key)."""
        return tuple(
            attr_value(node_tuple.components[self._positions[attr]], attr)
            for attr in attrs
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JoinTreeNode(members={self.members}, vars={sorted(self.varset)}, "
            f"tuples={len(self.tuples)}, children={len(self.children)})"
        )


class JoinTree:
    """A rooted join tree over the query's relations."""

    def __init__(self, root: JoinTreeNode, relations: tuple[Relation, ...]) -> None:
        self.root = root
        self.relations = relations
        #: Children-before-parents order (the DP processing order).
        self.postorder: list[JoinTreeNode] = []
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.postorder.append(node)
                continue
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))

    @property
    def width(self) -> int:
        """Largest bag size (1 for acyclic queries, >1 once GHD merged)."""
        return max(len(node.members) for node in self.postorder)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JoinTree(nodes={len(self.postorder)}, width={self.width}, "
            f"relations={len(self.relations)})"
        )
