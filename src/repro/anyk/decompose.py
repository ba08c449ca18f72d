"""Query descriptions and join-tree decomposition for any-k.

An :class:`AnyKQuery` is the any-k engine's input: relations plus
equi-join conditions ``(i, j, attr)`` meaning ``R_i.attr = R_j.attr``.
Attribute names unify globally (natural-join semantics): every relation
incident to conditions naming ``attr`` exposes one shared variable
``attr``, so chains, stars and cycles are all expressible with one
vocabulary.  The sentinel :data:`~repro.anyk.jointree.KEY_ATTR` names the
tuple key, which makes the paper's binary key-join a two-node query.

:func:`decompose` turns the query hypergraph into a :class:`~repro.anyk.
jointree.JoinTree`:

* **Acyclic** queries reduce by GYO ear removal — an edge whose shared
  variables all fit inside a single witness edge is removed and becomes
  a child of (the node that absorbed) its witness.
* **Cyclic** queries stall GYO with no ear available.  A generalized
  hypertree-style step then merges the two remaining edges sharing the
  most variables into one *bag* (materialized via an in-memory hash
  join) and ear removal resumes.  Each merge grows the decomposition
  width by one, which is exactly the GHD cost model: the triangle query
  becomes a width-2 tree.

Disconnected hypergraphs (cross products) are rejected: no pulling
strategy or DP ordering makes an unconstrained Cartesian product
rank-efficient, and silently producing one would mask query bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anyk.jointree import JoinTree, JoinTreeNode, relation_weights
from repro.core.scoring import ScoringFunction, SumScore
from repro.errors import InstanceError
from repro.relation.relation import (
    KEY_ATTR, Relation, attr_value, dense_ranks, encode_keys,
)


@dataclass(frozen=True)
class AnyKQuery:
    """One any-k join query: relations plus pairwise equi-join conditions."""

    relations: tuple[Relation, ...]
    join_on: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(
            self, "join_on", tuple((int(a), int(b), str(attr)) for a, b, attr in self.join_on)
        )
        n = len(self.relations)
        if n < 2:
            raise InstanceError("an any-k query needs at least two relations")
        if not self.join_on:
            raise InstanceError("an any-k query needs at least one join condition")
        for a, b, attr in self.join_on:
            if not (0 <= a < n and 0 <= b < n):
                raise InstanceError(
                    f"join condition ({a}, {b}, {attr!r}) references a "
                    f"relation outside 0..{n - 1}"
                )
            if a == b:
                raise InstanceError(
                    f"join condition ({a}, {b}, {attr!r}) joins a relation "
                    f"with itself; self-joins need distinct relation entries"
                )
            if not attr:
                raise InstanceError("join attribute names must be non-empty")

    @classmethod
    def binary(cls, left: Relation, right: Relation) -> "AnyKQuery":
        """The paper's binary rank join: two relations joined on the key."""
        return cls(relations=(left, right), join_on=((0, 1, KEY_ATTR),))

    @classmethod
    def chain(cls, relations, join_attrs) -> "AnyKQuery":
        """A path query: relation ``i`` joins ``i+1`` on ``join_attrs[i]``."""
        relations = tuple(relations)
        join_attrs = tuple(join_attrs)
        if len(join_attrs) != len(relations) - 1:
            raise InstanceError(
                f"need {len(relations) - 1} join attributes for "
                f"{len(relations)} relations, got {len(join_attrs)}"
            )
        return cls(
            relations=relations,
            join_on=tuple(
                (i, i + 1, attr) for i, attr in enumerate(join_attrs)
            ),
        )

    @classmethod
    def star(cls, center: Relation, satellites, join_attrs) -> "AnyKQuery":
        """A star query: every satellite joins the center on its own attr."""
        satellites = tuple(satellites)
        join_attrs = tuple(join_attrs)
        if len(join_attrs) != len(satellites):
            raise InstanceError(
                f"need one join attribute per satellite "
                f"({len(satellites)}), got {len(join_attrs)}"
            )
        return cls(
            relations=(center, *satellites),
            join_on=tuple(
                (0, i + 1, attr) for i, attr in enumerate(join_attrs)
            ),
        )

    def variables(self) -> list[frozenset[str]]:
        """Per-relation join-variable sets (attribute names unify globally)."""
        vars_of: list[set[str]] = [set() for _ in self.relations]
        for a, b, attr in self.join_on:
            vars_of[a].add(attr)
            vars_of[b].add(attr)
        return [frozenset(v) for v in vars_of]


class _Edge:
    """A hyperedge during reduction: variables + covered relations."""

    __slots__ = ("varset", "members", "alias")

    def __init__(self, varset: frozenset[str], members: tuple[int, ...]) -> None:
        self.varset = varset
        self.members = members
        #: Set when this edge is merged into a bag; witnesses resolve
        #: through the alias chain to the surviving edge.
        self.alias: _Edge | None = None

    def resolve(self) -> "_Edge":
        edge = self
        while edge.alias is not None:
            edge = edge.alias
        return edge


def _gyo_reduce(query: AnyKQuery) -> tuple[_Edge, list[tuple[_Edge, _Edge]]]:
    """GYO ear removal with GHD bag merges; returns (root, ear list)."""
    edges = [
        _Edge(varset, (index,))
        for index, varset in enumerate(query.variables())
    ]
    removed: list[tuple[_Edge, _Edge]] = []  # (ear, witness)
    while len(edges) > 1:
        ear = witness = None
        for e in edges:
            others = [f for f in edges if f is not e]
            shared = e.varset & frozenset().union(*(f.varset for f in others))
            if not shared:
                raise InstanceError(
                    "query hypergraph is disconnected (a cross product); "
                    "add a join condition linking every relation"
                )
            for f in others:
                if shared <= f.varset:
                    ear, witness = e, f
                    break
            if ear is not None:
                break
        if ear is not None:
            edges.remove(ear)
            removed.append((ear, witness))
            continue
        # Cyclic: merge the pair sharing the most variables into a bag.
        best_pair = None
        best_shared = 0
        for i, e in enumerate(edges):
            for f in edges[i + 1:]:
                shared = len(e.varset & f.varset)
                if shared > best_shared:
                    best_shared = shared
                    best_pair = (e, f)
        e, f = best_pair
        merged = _Edge(e.varset | f.varset, tuple(sorted(e.members + f.members)))
        e.alias = merged
        f.alias = merged
        edges = [edge for edge in edges if edge is not e and edge is not f]
        edges.append(merged)
    return edges[0], removed


def _materialize(
    members: tuple[int, ...],
    query: AnyKQuery,
    rel_vars: list[frozenset[str]],
    annotated,
) -> tuple[list[tuple], np.ndarray, list[tuple], np.ndarray]:
    """A merged bag's columns ``(rows, weights, identities, ranks)``, members
    in query order: the hash join of the member relations on shared vars."""
    order = [members[0]]
    remaining = list(members[1:])
    acc_vars = set(rel_vars[members[0]])
    while remaining:
        best = max(remaining, key=lambda r: (len(rel_vars[r] & acc_vars), -r))
        if not rel_vars[best] & acc_vars:
            raise InstanceError(
                "bag members share no join variables (a cross product "
                "inside a merged bag); the query is not supported"
            )
        order.append(best)
        remaining.remove(best)
        acc_vars |= rel_vars[best]

    first = order[0]
    partial = [
        ((tup,), weight, (identity,)) for tup, weight, identity in annotated(first)
    ]
    seen_vars = set(rel_vars[first])
    var_pos = {var: 0 for var in rel_vars[first]}
    for position, rel_index in enumerate(order[1:], start=1):
        shared = tuple(sorted(rel_vars[rel_index] & seen_vars))
        table: dict[tuple, list] = {}
        for entry in annotated(rel_index):
            key = tuple(attr_value(entry[0], var) for var in shared)
            table.setdefault(key, []).append(entry)
        joined = []
        for components, weight, identities in partial:
            key = tuple(
                attr_value(components[var_pos[var]], var) for var in shared
            )
            for tup, tuple_weight, identity in table.get(key, ()):
                joined.append((
                    components + (tup,),
                    weight + tuple_weight,
                    identities + (identity,),
                ))
        partial = joined
        for var in rel_vars[rel_index]:
            var_pos.setdefault(var, position)
        seen_vars |= rel_vars[rel_index]

    # Re-emit components in query-relation order so identities and score
    # vectors are independent of the internal join order.
    reorder = sorted(range(len(order)), key=lambda pos: order[pos])
    identities = [tuple(ids[pos] for pos in reorder) for _, _, ids in partial]
    return (
        [tuple(parts[pos] for pos in reorder) for parts, _, _ in partial],
        np.array([weight for _, weight, _ in partial], dtype=float),
        identities,
        dense_ranks(identities),
    )


def decompose(query: AnyKQuery, scoring: ScoringFunction | None = None) -> JoinTree:
    """Build the join tree (decomposition + bag materialization)."""
    scoring = scoring if scoring is not None else SumScore()
    rel_vars = query.variables()
    weights = relation_weights(scoring, query.relations)
    materialized: dict[int, int] = {}

    def annotated(index: int):
        """``(tuple, weight, identity)`` of relation ``index``, bag order —
        the one read of a merged bag's member, counted as such."""
        relation = query.relations[index]
        rows = relation.scored()[0]
        materialized[index] = len(rows)
        return zip(rows, weights[index].tolist(), relation.identities())

    root_edge, ears = _gyo_reduce(query)
    nodes: dict[int, JoinTreeNode] = {}

    def node_for(edge: _Edge) -> JoinTreeNode:
        edge = edge.resolve()
        existing = nodes.get(id(edge))
        if existing is not None:
            return existing
        members = edge.members
        if len(members) == 1:
            relation = query.relations[members[0]]
            columns = (relation.scored()[0], weights[members[0]],
                       relation.identities(), relation.identity_ranks())
        else:
            columns = _materialize(members, query, rel_vars, annotated)
        node = nodes[id(edge)] = JoinTreeNode(members, edge.varset, *columns)
        return node

    def key_codes(node: JoinTreeNode, attrs: tuple[str, ...]):
        """The key codes of ``node``'s rows on ``attrs`` — asked here only,
        so the tree keeps the codes of the content it was built on."""
        if len(node.members) == 1:
            return query.relations[node.members[0]].key_codes(attrs)
        providers = [
            next(pos for pos, m in enumerate(node.members) if attr in rel_vars[m])
            for attr in attrs
        ]
        return encode_keys(
            tuple([attr_value(row[pos], attr) for pos, attr in zip(providers, attrs)])
            for row in node.rows
        )

    root = node_for(root_edge)
    # Ears removed later sit closer to the root: attach in reverse order
    # so every witness already has its node when its ears arrive.
    for ear, witness in reversed(ears):
        child = node_for(ear)
        parent = node_for(witness)
        attrs = tuple(sorted(child.varset & parent.varset))
        parent.children.append(child)
        parent.child_attrs.append(attrs)
        parent.child_keys.append(key_codes(parent, attrs))
        child.parent_attrs = attrs
        child.parent_keys = key_codes(child, attrs)
    tree = JoinTree(root, query.relations)
    tree.materialized = materialized
    return tree
