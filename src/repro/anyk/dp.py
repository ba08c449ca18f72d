"""Bottom-up dynamic program over the join tree, as array passes.

For every node (children before parents), each tuple ``t`` is scored
with its *suffix-optimal* weight::

    best(t) = weight(t) + Σ_child  max { best(t') : t' joins t }

i.e. the best completion of ``t`` over the subtree rooted at its node.
Tuples that find no join partner in some child are pruned — the
full-reducer semijoin falls out of the DP for free, so enumeration never
touches a tuple that cannot appear in a result.

A node is columns (:class:`~repro.anyk.jointree.JoinTreeNode`) and so is
the pass: for rows ``[i, j)`` of a node, ``best = w[i:j]``, then per child
*in order* ``gid = map_c[codes_c[i:j]]`` (the matching child group or -1,
``map_c`` probed once per *distinct* edge value when the node starts),
``alive &= gid >= 0``, ``best = best + group_best_c[gid]`` — the sum
associates left to right as a per-tuple loop would, so every ``best``
carries the same bits.  When a node's last row is in, one stable
``lexsort`` orders the alive rows by ``(connection code, -best, identity
rank)``: groups are the runs of equal connection code (the shared-attribute
values toward the parent), each sorted by ``(-best, identity)`` with row
order between equals — the "sorted list of suffix solutions" the Lawler/REA
successor generation in :mod:`repro.anyk.enumerate` walks lazily.
:class:`Group` and :class:`DPEntry` objects exist only where it walks.

The pass is *budgeted*: :meth:`DPState.run` processes at most ``budget``
tuples (a slice that long) and leaves an explicit cursor behind — this is
what lets :class:`~repro.anyk.engine.AnyKRankJoin` honor
``try_next(max_pulls)`` quanta mid-build, so sessions and the
scheduler interleave an any-k build exactly like PBRJ pulls.
"""

from __future__ import annotations

import numpy as np

from repro.anyk.jointree import JoinTree, JoinTreeNode, NodeTuple


class DPEntry:
    """One surviving tuple: its suffix-optimal weight, its object form and
    the matching group in every child."""

    __slots__ = ("best", "node_tuple", "child_groups")

    def __init__(self, best: float, node_tuple: NodeTuple, child_groups: tuple) -> None:
        self.best = best
        self.node_tuple = node_tuple
        self.child_groups = child_groups


class Group:
    """One connection-value group, suffix solutions sorted best-first: a window
    onto its node's sorted rows; :meth:`entry` builds and keeps their objects."""

    __slots__ = ("node", "_columns", "_rows", "_entries")

    def __init__(self, columns: _NodeColumns, rows: np.ndarray) -> None:
        self.node = columns.node
        self._columns = columns
        self._rows = rows
        self._entries: dict[int, DPEntry] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def entry(self, index: int) -> DPEntry:
        entry = self._entries.get(index)
        if entry is None:
            columns, row = self._columns, int(self._rows[index])
            entry = self._entries[index] = DPEntry(
                float(columns.best[row]),
                self.node.node_tuple(row),
                tuple(
                    child.group(int(gids[row]))
                    for child, gids in zip(columns.children, columns.child_gids)
                ),
            )
        return entry


class _NodeColumns:
    """The DP's columns over one node: filled by slices, then grouped."""

    def __init__(self, node: JoinTreeNode, children: list[_NodeColumns]) -> None:
        self.node = node
        self.children = children
        self.best = np.empty(len(node))
        self.alive = np.ones(len(node), dtype=bool)
        #: Per child edge the child group (-1: none) of each distinct edge value
        #: and, through it, of each row.
        self.value_gids = [
            np.array([child.gid_of.get(v, -1) for v in values], dtype=np.intp)
            for child, (values, _) in zip(children, node.child_keys)
        ]
        self.child_gids = [np.empty(len(node), dtype=np.intp) for _ in children]
        self.groups: dict[int, Group] = {}

    def advance(self, start: int, stop: int) -> int:
        """Score rows ``[start, stop)``; return how many found no partner."""
        best = self.node.weights[start:stop]
        alive = self.alive[start:stop]
        for child, value_gids, (_, codes), gids in zip(
            self.children, self.value_gids, self.node.child_keys, self.child_gids
        ):
            found = gids[start:stop] = value_gids[codes[start:stop]]
            alive &= found >= 0
            # -1 reads the NaN that ends group_best: a pruned row has no best.
            best = best + child.group_best[found]
        self.best[start:stop] = best
        return (stop - start) - int(np.count_nonzero(alive))

    def close(self) -> None:
        """Every row is in: order the survivors and cut them into groups."""
        values, codes = self.node.parent_keys
        rows = np.flatnonzero(self.alive)
        self.order = rows[
            np.lexsort((self.node.ranks[rows], -self.best[rows], codes[rows]))
        ]
        codes = codes[self.order]
        heads = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]][:len(codes)])
        #: Group ``g`` is ``order[bounds[g]:bounds[g + 1]]``.
        self.bounds = np.append(heads, len(codes))
        self.group_best = np.append(self.best[self.order[heads]], np.nan)
        self.gid_of = {
            values[code]: gid for gid, code in enumerate(codes[heads].tolist())
        }

    def group(self, gid: int) -> Group:
        """The ``gid``-th group — the same object every time it is reached
        (the enumerator keys its per-group state on it)."""
        group = self.groups.get(gid)
        if group is None:
            start, stop = self.bounds[gid:gid + 2]
            group = self.groups[gid] = Group(self, self.order[start:stop])
        return group


class DPState:
    """Cursor-steppable bottom-up DP over a join tree."""

    def __init__(self, tree: JoinTree) -> None:
        self.tree = tree
        self.done = False
        #: Tuples ingested per relation index (the any-k depth metric).
        self.ingested = [0] * len(tree.relations)
        #: node -> its columns, from the moment the pass reaches it.
        self._columns: dict[JoinTreeNode, _NodeColumns] = {}
        self._node_index = 0
        self._tuple_index = 0
        self.tuples_processed = 0
        self.pruned = 0

    @property
    def root_group(self) -> Group | None:
        """The root's single (empty-connection) group; None when empty."""
        if not self.done:
            return None
        root = self._columns[self.tree.root]
        return root.group(0) if len(root.bounds) > 1 else None

    def run(self, budget: int | None = None) -> int:
        """Process up to ``budget`` tuples (``None``: all), return how many."""
        spent = 0
        order = self.tree.postorder
        while self._node_index < len(order):
            node = order[self._node_index]
            columns = self._columns.get(node)
            if columns is None:
                columns = self._columns[node] = _NodeColumns(
                    node, [self._columns[child] for child in node.children]
                )
            start = self._tuple_index
            take = len(node) - start
            if budget is not None:
                take = min(take, budget - spent)
            if take:
                self.pruned += columns.advance(start, start + take)
                self._tuple_index += take
                spent += take
                self.tuples_processed += take
                self.ingested[node.index] += take
            if self._tuple_index < len(node):
                return spent
            columns.close()
            self._node_index += 1
            self._tuple_index = 0
        self.done = True
        return spent
