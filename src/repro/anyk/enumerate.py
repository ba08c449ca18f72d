"""Ranked enumeration over the DP-annotated join tree.

The classic any-k construction (Lawler procedure specialized to trees,
a.k.a. REA / take2 in Tziavelis et al.): every connection-value group
maintains a lazily-materialized *sorted list of suffix solutions*.  A
suffix solution of a group is one entry (bag tuple) plus a rank choice
into each child group; its score is the entry's weight plus the chosen
child solutions' scores.  Two successor moves generate every solution
exactly once from the group's best one:

* advance to the *next entry* of the sorted group (only from the
  all-ranks-1 solution of the current entry, which chains entries
  without flooding the heap), or
* increment a *single child rank* by one.

A per-group candidate heap ordered by ``(-score, entry, ranks)`` plus a
seen-set makes the materialization lazy and duplicate-free; asking for a
group's ``j``-th solution pops at most the candidates needed to reach
it, recursing into child groups on demand.  The global priority queue of
the construction is simply the root group's heap.

**Canonical tie order.**  Emission must be deterministic and content-only
(bit-identical across cores and fault-injected runs), while DP
scores carry float-association noise relative to the true scores.  The
enumerator therefore releases *tie batches*: it drains every root
solution within ``SCORE_EPS`` of the batch head (DP scores are
non-increasing, so the batch is complete when the next one falls below),
and the engine re-scores each batch member exactly and sorts the batch
by ``(-score, canonical identity)`` — the canonical tie order of
:func:`~repro.core.pbrj.result_identity`.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.anyk.dp import DPState, Group
from repro.core.pbrj import SCORE_EPS
from repro.core.tuples import RankTuple

#: One group solution: (DP score, entry index, child rank vector).
Solution = tuple[float, int, tuple[int, ...]]


class GroupEnum:
    """Lazy sorted solution list of one (node, connection-value) group."""

    __slots__ = ("group", "solutions", "heap", "seen")

    def __init__(self, group: Group) -> None:
        self.group = group
        self.solutions: list[Solution] = []
        ranks = (1,) * len(group.node.children)
        #: Candidate heap: (-score, entry index, ranks).  Entry index and
        #: ranks break score ties deterministically.
        self.heap: list[tuple[float, int, tuple[int, ...]]] = [
            (-group.entry(0).best, 0, ranks)
        ]
        self.seen: set[tuple[int, tuple[int, ...]]] = {(0, ranks)}


class Enumerator:
    """Global ranked enumeration driven from the root group."""

    def __init__(self, dp: DPState) -> None:
        if not dp.done:
            raise RuntimeError("enumeration needs a completed DP pass")
        self.dp = dp
        #: Heap pops performed (the enumeration work counter).
        self.pops = 0
        self._enums: dict[int, GroupEnum] = {}
        root_group = dp.root_group
        self._root = self._enum_for(root_group) if root_group is not None else None
        self._next_rank = 1

    # ------------------------------------------------------------------
    # Lazy per-group solution lists
    # ------------------------------------------------------------------
    def _enum_for(self, group: Group) -> GroupEnum:
        enum = self._enums.get(id(group))
        if enum is None:
            enum = self._enums[id(group)] = GroupEnum(group)
        return enum

    def solution(self, enum: GroupEnum, j: int) -> Solution | None:
        """The group's ``j``-th best solution (1-indexed), or ``None``."""
        solutions = enum.solutions
        heap = enum.heap
        group = enum.group
        while len(solutions) < j and heap:
            neg_score, entry_index, ranks = heappop(heap)
            self.pops += 1
            score = -neg_score
            solutions.append((score, entry_index, ranks))
            if entry_index + 1 < len(group) and all(r == 1 for r in ranks):
                successor = (entry_index + 1, ranks)
                if successor not in enum.seen:
                    enum.seen.add(successor)
                    heappush(
                        heap, (-group.entry(entry_index + 1).best, *successor)
                    )
            for i, child_group in enumerate(group.entry(entry_index).child_groups):
                rank = ranks[i]
                child_enum = self._enum_for(child_group)
                bumped = self.solution(child_enum, rank + 1)
                if bumped is None:
                    continue
                next_ranks = ranks[:i] + (rank + 1,) + ranks[i + 1:]
                successor = (entry_index, next_ranks)
                if successor in enum.seen:
                    continue
                enum.seen.add(successor)
                current = child_enum.solutions[rank - 1]
                heappush(
                    heap,
                    (-(score - current[0] + bumped[0]), *successor),
                )
        return solutions[j - 1] if len(solutions) >= j else None

    def _assignment(
        self, enum: GroupEnum, j: int
    ) -> list[tuple[int, RankTuple, tuple]]:
        """Flatten the group's ``j``-th solution to (relation, tuple,
        identity) triples."""
        _, entry_index, ranks = enum.solutions[j - 1]
        entry = enum.group.entry(entry_index)
        node_tuple = entry.node_tuple
        triples = list(zip(
            enum.group.node.members, node_tuple.components, node_tuple.identity
        ))
        for i, child_group in enumerate(entry.child_groups):
            triples.extend(
                self._assignment(self._enums[id(child_group)], ranks[i])
            )
        return triples

    # ------------------------------------------------------------------
    # Root enumeration
    # ------------------------------------------------------------------
    def next_batch(self) -> list[tuple[float, tuple[RankTuple, ...], tuple]]:
        """The next tie batch: (DP score, relation-ordered tuples, their
        canonical identities) triples.

        Empty once the output is fully enumerated.  The batch contains
        every remaining solution within ``SCORE_EPS`` of its head, so
        exact re-scoring plus an identity sort inside the batch yields
        the canonical global order.
        """
        if self._root is None:
            return []
        head = self.solution(self._root, self._next_rank)
        if head is None:
            return []
        count = 1
        while True:
            follower = self.solution(self._root, self._next_rank + count)
            if follower is None or follower[0] < head[0] - SCORE_EPS:
                break
            count += 1
        batch = []
        for rank in range(self._next_rank, self._next_rank + count):
            triples = self._assignment(self._root, rank)
            triples.sort(key=lambda triple: triple[0])
            batch.append((
                self._root.solutions[rank - 1][0],
                tuple(tup for _, tup, _ in triples),
                tuple(identity for _, _, identity in triples),
            ))
        self._next_rank += count
        return batch

    def peek(self) -> float:
        """Upper bound (DP score) on the next unconsumed root solution."""
        if self._root is None:
            return float("-inf")
        if len(self._root.solutions) >= self._next_rank:
            return self._root.solutions[self._next_rank - 1][0]
        if self._root.heap:
            return -self._root.heap[0][0]
        return float("-inf")
