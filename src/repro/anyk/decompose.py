"""The query description and the path join tree of any-k.

An :class:`AnyKQuery` is the any-k engine's input: a chain of relations
and one join attribute per link, ``R_i.join_attrs[i] = R_{i+1}.join_attrs[i]``
— the per-edge semantics of :class:`~repro.service.query.QuerySpec` and
PBRJ's ``join_attrs``, so a chain that reuses an attribute name joins
each link on its own.  The sentinel :data:`~repro.anyk.jointree.KEY_ATTR`
names the tuple key, which makes the paper's binary key-join a two-node
chain.

The join tree of a path query is the path itself (the acyclic case of
"Optimal Join Algorithms Meet Top-k"): :func:`decompose` lists one node
per relation, leaf first, and node ``i`` joins its child, node ``i - 1``,
on ``join_attrs[i - 1]``; the last node is the root.  The semijoin
reduction and the grouping of every link depend on the rows alone, which
never change, so each comes from its relation's cached
:meth:`~repro.relation.relation.Relation.link`; a query only scores them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anyk.jointree import JoinTreeNode, relation_weights
from repro.core.scoring import ScoringFunction, SumScore
from repro.errors import InstanceError
from repro.relation.relation import KEY_ATTR, Relation


@dataclass(frozen=True)
class AnyKQuery:
    """One any-k join query: a chain of relations, one attribute per link."""

    relations: tuple[Relation, ...]
    join_attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "join_attrs", tuple(map(str, self.join_attrs)))
        n = len(self.relations)
        if n < 2:
            raise InstanceError("an any-k query needs at least two relations")
        if len(self.join_attrs) != n - 1:
            raise InstanceError(
                f"need {n - 1} join attributes for {n} relations, "
                f"got {len(self.join_attrs)}"
            )
        if not all(self.join_attrs):
            raise InstanceError("join attribute names must be non-empty")

    @classmethod
    def binary(cls, left: Relation, right: Relation) -> "AnyKQuery":
        """The paper's binary rank join: two relations joined on the key."""
        return cls((left, right), (KEY_ATTR,))


def decompose(
    query: AnyKQuery, scoring: ScoringFunction | None = None
) -> list[JoinTreeNode]:
    """The path of ``query``, one node per relation, leaf first."""
    scoring = scoring if scoring is not None else SumScore()
    relations = query.relations
    nodes = [
        JoinTreeNode(index, relation, weights)
        for index, (relation, weights)
        in enumerate(zip(relations, relation_weights(scoring, relations)))
    ]
    for child, parent, attr in zip(nodes, nodes[1:], query.join_attrs):
        parent.child_keys = relations[parent.index].key_codes((attr,))
        child.parent_keys = relations[child.index].key_codes((attr,))
        link = relations[child.index].link(
            relations[parent.index], (attr,), child.child_gids)
        child.rows_by_group, child.bounds = link.rows, link.bounds
        parent.child_gids = link.parent_gids
    # The root is one group: its surviving rows.
    root = nodes[-1]
    root.rows_by_group = survivors = np.flatnonzero(root.child_gids >= 0)
    root.bounds = np.array([0, len(survivors)] if len(survivors) else [0])
    return nodes
