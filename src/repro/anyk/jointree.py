"""Join-tree representation for ranked enumeration (any-k).

A :class:`JoinTree` is the evaluation plan of an any-k query: each
:class:`JoinTreeNode` is a *bag* covering one or more input relations,
edges are equi-joins on shared attribute names, and every node *is
columns* over its bag tuples (one per combination of member tuples that
agrees on the bag-internal join attributes): row snapshot, float64 weights,
canonical identities with their dense ranks, and per tree edge the integer
codes of the rows' join-key values — a singleton bag borrows the
content-only ones from its :class:`~repro.relation.relation.Relation`; a
:class:`NodeTuple` object exists only for rows an enumeration emits.
Acyclic queries decompose into singleton bags; simple cyclic queries get
one merged bag per broken cycle (see :mod:`repro.anyk.decompose`).

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
from repro.relation.relation import KEY_ATTR, KeyCodes, Relation  # noqa: F401


def relation_weights(
    scoring: ScoringFunction, relations: tuple[Relation, ...]
) -> list[np.ndarray]:
    """Per-relation float64 vectors of additive tuple weights ``w_i(τ)``,
    aligned with :meth:`Relation.scored`.

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
        weights.append(scoring.batch(padded))
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
        #: Content-only tie-break key: one :meth:`Relation.identities` entry
        #: per component.
        self.identity = identity


class JoinTreeNode:
    """One bag of the join tree: columns over its bag tuples."""

    __slots__ = (
        "members", "varset", "rows", "weights", "identities", "ranks",
        "children", "child_attrs", "child_keys", "parent_attrs", "parent_keys",
    )

    def __init__(self, members, varset, rows, weights, identities, ranks) -> None:
        #: Relation indices this bag covers, in query order.
        self.members = members
        self.varset = varset
        #: Per bag tuple the :class:`RankTuple` itself (singleton bag) or the
        #: member-ordered tuple of them (merged bag); :attr:`identities`
        #: likewise, :attr:`ranks` their dense ranks (the DP's tie-break);
        #: :attr:`weights` and ``ranks`` are arrays.
        self.rows = rows
        self.weights = weights
        self.identities = identities
        self.ranks = ranks
        self.children: list[JoinTreeNode] = []
        #: Shared join attributes per child edge (sorted, aligned with
        #: :attr:`children`) and this node's key codes on each.
        self.child_attrs: list[tuple[str, ...]] = []
        self.child_keys: list[KeyCodes] = []
        #: Shared attributes toward the parent (``None`` for the root) and the
        #: key codes on them, the DP's grouping column: one group for a root.
        self.parent_attrs: tuple[str, ...] | None = None
        self.parent_keys: KeyCodes = ([()], np.zeros(len(rows), dtype=np.intp))

    def __len__(self) -> int:
        return len(self.rows)

    def node_tuple(self, row: int) -> NodeTuple:
        """The bag tuple at ``row`` as an object — what the enumeration
        asks for the rows it emits, and the DP never does."""
        components, identity = self.rows[row], self.identities[row]
        if len(self.members) == 1:
            components, identity = (components,), (identity,)
        return NodeTuple(components, float(self.weights[row]), identity)

    @property
    def tuples(self) -> list[NodeTuple]:
        """Every bag tuple as an object, bag order (inspection only)."""
        return [self.node_tuple(row) for row in range(len(self.rows))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoinTreeNode(members={self.members}, tuples={len(self.rows)})"


class JoinTree:
    """A rooted join tree over the query's relations."""

    def __init__(self, root: JoinTreeNode, relations: tuple[Relation, ...]) -> None:
        self.root = root
        self.relations = relations
        #: relation index -> tuples read while materializing a merged bag
        #: (the one pass over a member relation; empty for acyclic queries).
        self.materialized: dict[int, int] = {}
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
