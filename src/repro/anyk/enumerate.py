"""Ranked enumeration over the DP-annotated path.

The classic any-k construction (Lawler procedure specialized to trees,
a.k.a. REA / take2 in Tziavelis et al.), on a path: every connection-value
group keeps a lazily-materialized *sorted list of suffix solutions*.  A
suffix solution of a group is one entry (node tuple) plus a rank into the
child group (0 at the leaf); its score is the entry's weight plus the
chosen child solution's score.  Two successor moves generate every
solution exactly once from the group's best one:

* advance to the *next entry* of the sorted group (only from the rank-1
  solution of the current entry — rank 0 at the leaf — which chains
  entries without flooding the heap), or
* increment the child rank by one.

Each solution has exactly one predecessor — ``(e, 1)`` comes only from
``(e - 1, 1)`` and ``(e, r + 1)`` only from ``(e, r)`` — so a per-group
candidate heap ordered by ``(-score, entry, rank)`` makes the
materialization lazy and duplicate-free with no seen-set; asking for a
group's ``j``-th solution pops at most the candidates needed to reach
it, recursing into the child group on demand.  The global priority queue
of the construction is simply the root group's heap.

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


class Enumerator:
    """Global ranked enumeration driven from the root group."""

    def __init__(self, dp: DPState) -> None:
        if not dp.done:
            raise RuntimeError("enumeration needs a completed DP pass")
        #: Heap pops performed (the enumeration work counter).
        self.pops = 0
        self._root = dp.root_group
        self._next_rank = 1

    def solution(self, group: Group, j: int) -> tuple[float, int, int] | None:
        """The group's ``j``-th best solution (1-indexed), or ``None``."""
        solutions = group.solutions
        heap = group.heap
        while len(solutions) < j and heap:
            neg_score, entry, rank = heappop(heap)
            self.pops += 1
            score = -neg_score
            solutions.append((score, entry, rank))
            if rank <= 1 and entry + 1 < len(group):
                heappush(heap, (-group.best(entry + 1), entry + 1, rank))
            if rank:
                child = group.child(entry)
                bumped = self.solution(child, rank + 1)
                if bumped is not None:
                    current = child.solutions[rank - 1]
                    heappush(
                        heap, (-(score - current[0] + bumped[0]), entry, rank + 1)
                    )
        return solutions[j - 1] if len(solutions) >= j else None

    def _assignment(
        self, group: Group, j: int
    ) -> tuple[tuple[RankTuple, ...], tuple]:
        """The group's ``j``-th solution as its tuples and their identities,
        in relation order."""
        tuples, identities = [], []
        while True:
            _, entry, rank = group.solutions[j - 1]
            node, row = group.node, group.rows[entry]
            tuples.append(node.rows[row])
            identities.append(node.identities[row])
            if not rank:
                return tuple(reversed(tuples)), tuple(reversed(identities))
            group, j = group.child(entry), rank

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
        batch = [
            (self._root.solutions[rank - 1][0], *self._assignment(self._root, rank))
            for rank in range(self._next_rank, self._next_rank + count)
        ]
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
