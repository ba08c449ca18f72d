"""Join-tree nodes for ranked enumeration (any-k).

The evaluation plan of an any-k query is the path of its chain, one
:class:`JoinTreeNode` per input relation, leaf first (see
:mod:`repro.anyk.decompose`): node ``i``'s only child is node ``i - 1``,
and each link is an equi-join on one attribute.  Every node *is columns*
over its relation's tuples: the rows, float64 weights, canonical
identities, the integer codes of the rows' join-key values toward the
child and the parent, and the join structure of the path (per row its
child group, the surviving rows grouped toward the parent) — all
borrowed from the content-only views of its
:class:`~repro.relation.relation.Relation`.

Join attributes are plain names resolved against tuple payload dicts;
the sentinel :data:`KEY_ATTR` names the :attr:`~repro.core.tuples.
RankTuple.key` column, so the paper's binary key-join is expressible in
the same vocabulary as the payload-attribute chains of
:class:`~repro.core.pbrj.PBRJ`, whose default link it is.

Scores: any-k's dynamic program needs the aggregate to *decompose* over
the inputs — ``S(b(τ1) ⊕ … ⊕ b(τn)) = Σ_i w_i(τ_i)`` up to float
rounding.  :func:`relation_weights` derives the per-tuple weights for a
weighted sum (any ``S`` with
:meth:`~repro.core.scoring.ScoringFunction.row_weights`) and the mean
(:class:`~repro.core.scoring.AverageScore`, the sum scaled) and rejects
everything else with a clear error.  DP weights order the enumeration only; every emitted
result recomputes its score through the scoring function on the full
concatenated vector, exactly like PBRJ, so
scores are bit-identical across cores.
"""

from __future__ import annotations

import numpy as np

from repro.core.scoring import AverageScore, ScoringFunction
from repro.errors import InstanceError
from repro.relation.relation import KEY_ATTR, KeyCodes, Relation  # noqa: F401


def relation_weights(
    scoring: ScoringFunction, relations: tuple[Relation, ...]
) -> list[np.ndarray]:
    """Per-relation float64 vectors of additive tuple weights ``w_i(τ)``,
    aligned with :meth:`Relation.scored`.

    ``w_i(τ) = S(0…0 ⊕ b(τ) ⊕ 0…0)``: one exact
    :meth:`~ScoringFunction.padded_batch` pass per relation over its cached
    score matrix, laid out at the relation's offset in the concatenated
    vector (which fixes the weights it owns under
    :meth:`~ScoringFunction.row_weights`).  The additive functions score
    the relation's own columns alone, without building the zero padding.
    """
    total = sum(relation.dimension for relation in relations)
    if scoring.row_weights(0, total) is None and not isinstance(scoring, AverageScore):
        raise InstanceError(
            f"any-k needs an additive scoring function (a weighted sum or "
            f"AverageScore); got {type(scoring).__name__}"
        )
    try:  # S must take the whole vector: too few or too many weights fail
        scoring((0.0,) * total)
    except ValueError as exc:
        raise InstanceError(f"any-k cannot score the query's vector: {exc}") from None
    weights, offset = [], 0
    for relation in relations:
        weights.append(scoring.padded_batch(relation.scored()[1], offset, total))
        offset += relation.dimension
    return weights


class JoinTreeNode:
    """One relation of the path: columns over its tuples."""

    __slots__ = (
        "index", "rows", "weights", "identities",
        "child_keys", "parent_keys", "child_gids", "rows_by_group", "bounds",
    )

    def __init__(self, index: int, relation: Relation, weights: np.ndarray) -> None:
        #: The relation's position in the query (and in the path).
        self.index = index
        #: Per tuple the :class:`RankTuple` itself, its additive weight and
        #: its identity.
        self.rows = relation.scored()[0]
        self.weights = weights
        self.identities = relation.identities()
        #: The key codes toward the child, node ``index - 1`` (``None`` at
        #: the leaf).
        self.child_keys: KeyCodes | None = None
        #: The key codes toward the parent, the DP's grouping column: one
        #: group for the root.
        self.parent_keys: KeyCodes = ([()], np.zeros(len(self.rows), dtype=np.intp))
        #: Per row the child group it joins, -1 for none (``None`` at the
        #: leaf, where every row survives).
        self.child_gids: np.ndarray | None = None
        #: The surviving rows grouped by parent key code, code order: group
        #: ``g`` is ``rows_by_group[bounds[g]:bounds[g + 1]]`` (see
        #: :meth:`Relation.link`).
        self.rows_by_group: np.ndarray | None = None
        self.bounds: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoinTreeNode(index={self.index}, tuples={len(self.rows)})"
