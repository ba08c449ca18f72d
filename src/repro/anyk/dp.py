"""Bottom-up dynamic program over the path, as array passes.

For every node from the leaf up, each tuple ``t`` is scored with its
*suffix-optimal* weight::

    best(t) = weight(t) + max { best(t') : t' in the child node joins t }

i.e. the best completion of ``t`` down to the leaf.  Tuples that find no
join partner in the child are pruned — the full-reducer semijoin falls
out of the DP for free, so enumeration never touches a tuple that cannot
appear in a result.

A node is columns (:class:`~repro.anyk.jointree.JoinTreeNode`) and so is
the pass: for rows ``[i, j)`` of a node, ``gid = map[codes[i:j]]`` (the
matching child group or -1, ``map`` probed once per *distinct* link value
when the node starts), ``alive &= gid >= 0``, ``best = w[i:j] +
group_best[gid]`` — the bits a per-tuple loop would compute.  When a
node's last row is in, one stable ``lexsort`` orders the alive rows by
``(connection code, -best, identity rank)``: groups are the runs of equal
connection code (the link value toward the parent), each sorted by
``(-best, identity)`` with row order between equals — the "sorted list of
suffix solutions" the Lawler/REA successor generation in
:mod:`repro.anyk.enumerate` walks lazily.  A :class:`Group` object exists
only where it walks.

The pass is *budgeted*: :meth:`DPState.run` processes at most ``budget``
tuples (a slice that long) and leaves an explicit cursor behind — this is
what lets :class:`~repro.anyk.engine.AnyKRankJoin` honor
``try_next(max_pulls)`` quanta mid-build, so sessions and the
scheduler interleave an any-k build exactly like PBRJ pulls.
"""

from __future__ import annotations

import numpy as np

from repro.anyk.jointree import JoinTreeNode


class Group:
    """One connection-value group: a window onto its node's rows sorted
    best-first, and the lazily grown list of its solutions.

    A solution is ``(score, entry, rank)``: the group's ``entry``-th row and
    the child group's ``rank``-th solution (``rank`` 0 at the leaf).
    """

    __slots__ = ("node", "rows", "solutions", "heap", "_columns")

    def __init__(self, columns: _NodeColumns, rows: np.ndarray) -> None:
        self.node = columns.node
        self._columns = columns
        #: The node's rows in this group, best first.
        self.rows = rows
        #: Solutions popped so far, best first (the enumerator fills it).
        self.solutions: list[tuple[float, int, int]] = []
        #: Candidate heap ``(-score, entry, rank)``: entry and rank break
        #: score ties deterministically.
        self.heap = [(-self.best(0), 0, 0 if columns.child is None else 1)]

    def __len__(self) -> int:
        return len(self.rows)

    def best(self, entry: int) -> float:
        """The suffix-optimal weight of the ``entry``-th row."""
        return float(self._columns.best[self.rows[entry]])

    def child(self, entry: int) -> Group:
        """The child group the ``entry``-th row joins."""
        columns = self._columns
        return columns.child.group(int(columns.child_gids[self.rows[entry]]))


class _NodeColumns:
    """The DP's columns over one node: filled by slices, then grouped."""

    def __init__(self, node: JoinTreeNode, child: _NodeColumns | None) -> None:
        self.node = node
        self.child = child
        self.best = np.empty(len(node))
        self.alive = np.ones(len(node), dtype=bool)
        if child is not None:
            #: The child group (-1: none) of each distinct link value and,
            #: through it, of each row.
            self.value_gids = np.array(
                [child.gid_of.get(v, -1) for v in node.child_keys[0]], dtype=np.intp
            )
            self.child_gids = np.empty(len(node), dtype=np.intp)
        self.groups: dict[int, Group] = {}

    def advance(self, start: int, stop: int) -> int:
        """Score rows ``[start, stop)``; return how many found no partner."""
        best = self.node.weights[start:stop]
        alive = self.alive[start:stop]
        if self.child is not None:
            codes = self.node.child_keys[1]
            found = self.child_gids[start:stop] = self.value_gids[codes[start:stop]]
            alive &= found >= 0
            # -1 reads the NaN that ends group_best: a pruned row has no best.
            best = best + self.child.group_best[found]
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
        (it carries the group's enumeration state)."""
        group = self.groups.get(gid)
        if group is None:
            start, stop = self.bounds[gid:gid + 2]
            group = self.groups[gid] = Group(self, self.order[start:stop])
        return group


class DPState:
    """Cursor-steppable bottom-up DP over the path, leaf first."""

    def __init__(self, nodes: list[JoinTreeNode]) -> None:
        self.nodes = nodes
        self.done = False
        #: Tuples ingested per relation index (the any-k depth metric).
        self.ingested = [0] * len(nodes)
        #: Per node its columns, from the moment the pass reaches it.
        self._columns: list[_NodeColumns] = []
        self._node_index = 0
        self._tuple_index = 0
        self.tuples_processed = 0
        self.pruned = 0

    @property
    def root_group(self) -> Group | None:
        """The root's single (empty-connection) group; None when empty."""
        if not self.done:
            return None
        root = self._columns[-1]
        return root.group(0) if len(root.bounds) > 1 else None

    def run(self, budget: int | None = None) -> int:
        """Process up to ``budget`` tuples (``None``: all), return how many."""
        spent = 0
        nodes, columns = self.nodes, self._columns
        while self._node_index < len(nodes):
            node = nodes[self._node_index]
            if len(columns) == self._node_index:
                columns.append(_NodeColumns(node, columns[-1] if columns else None))
            start = self._tuple_index
            take = len(node) - start
            if budget is not None:
                take = min(take, budget - spent)
            if take:
                self.pruned += columns[-1].advance(start, start + take)
                self._tuple_index += take
                spent += take
                self.tuples_processed += take
                self.ingested[node.index] += take
            if self._tuple_index < len(node):
                return spent
            columns[-1].close()
            self._node_index += 1
            self._tuple_index = 0
        self.done = True
        return spent
