"""Bottom-up dynamic program over the path, as array passes.

For every node from the leaf up, each tuple ``t`` is scored with its
*suffix-optimal* weight::

    best(t) = weight(t) + max { best(t') : t' in the child node joins t }

i.e. the best completion of ``t`` down to the leaf.  Tuples that find no
join partner in the child are pruned — the full-reducer semijoin falls
out of the DP for free, so enumeration never touches a tuple that cannot
appear in a result.

A node is columns (:class:`~repro.anyk.jointree.JoinTreeNode`) and so is
the pass: for rows ``[i, j)`` of a node, ``gid = child_gids[i:j]`` (the
matching child group or -1), ``best = w[i:j] + group_best[gid]`` — the
bits a per-tuple loop would compute.  Which rows survive and how they
group toward the parent depend on content alone, so the node borrows
them from :meth:`~repro.relation.relation.Relation.link`, prepared once
per relation pair and link attribute: groups are the runs of equal
connection code (the link value toward the parent), in code order.  When
a node's last row is in, one ``np.maximum.reduceat`` gives every group
its best; a group's rows are sorted by ``-best``, stably (row order
between equals), only when the enumeration first reaches it —
the "sorted list of suffix solutions" the Lawler/REA successor generation
in :mod:`repro.anyk.enumerate` walks lazily.  Nothing else is sorted, and
a :class:`Group` object exists only where the enumeration walks.

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
        #: Per row the child group it joins (-1: none; ``None`` at the leaf).
        self.child_gids = node.child_gids
        self.groups: dict[int, Group] = {}

    def advance(self, start: int, stop: int) -> int:
        """Score rows ``[start, stop)``; return how many found no partner."""
        best = self.node.weights[start:stop]
        if self.child is None:
            self.best[start:stop] = best
            return 0
        found = self.child_gids[start:stop]
        # -1 reads the NaN that ends group_best: a pruned row has no best.
        self.best[start:stop] = best + self.child.group_best[found]
        return int(np.count_nonzero(found < 0))

    def close(self) -> None:
        """Every row is in: each group's best, in one pass and no sort."""
        rows, bounds = self.node.rows_by_group, self.node.bounds
        self.group_best = np.append(
            np.maximum.reduceat(self.best[rows], bounds[:-1]), np.nan)

    def group(self, gid: int) -> Group:
        """The ``gid``-th group — sorted best first when first reached, and
        the same object every time after (it carries the group's
        enumeration state)."""
        group = self.groups.get(gid)
        if group is None:
            start, stop = self.node.bounds[gid:gid + 2]
            rows = self.node.rows_by_group[start:stop]
            rows = rows[np.argsort(-self.best[rows], kind="stable")]
            group = self.groups[gid] = Group(self, rows)
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
        return root.group(0) if len(root.group_best) > 1 else None

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
