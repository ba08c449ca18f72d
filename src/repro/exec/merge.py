"""Global top-K merge over shard output streams.

Hash partitioning makes shards independent: every join result lives in
exactly one shard, and each shard's operator emits its local results in
decreasing score order.  The merger therefore only has to decide *when* a
locally-emitted result is globally safe to release:

    a candidate with score ``s`` is emittable once **every** live shard's
    frontier has dropped below ``s − ε`` — no shard can produce a result
    that would outrank it, or tie it, anymore.

A shard's *frontier* (:meth:`repro.core.pbrj.PBRJ.frontier`) combines its
bounding-scheme threshold ``t`` with its best buffered-but-unemitted
result; it is non-increasing, so the gate is monotone and the classic
termination condition — the K-th global score ≥ ``max`` over live shard
bounds — falls out of it: once K results pass the gate the merge stops
advancing shards whose frontier is already below the K-th score.

The strict ``< s − ε`` gate (rather than ``≤``) is what buys deterministic
tie order: all results tying at score ``s`` are forced into the candidate
heap *before* the first of them is released, and the heap orders equal
scores by the canonical tie order of
:func:`repro.core.pbrj.result_identity`, which is independent of shard
count and discovery order.  That is the invariant the
sharded-equals-serial test enforces.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.core.pbrj import SCORE_EPS, result_identity
from repro.core.tuples import JoinResult
from repro.exec.worker import AdvanceOutcome

NEG_INF = float("-inf")


class GlobalTopKMerger:
    """k-heap over shard outputs with the frontier emit gate."""

    def __init__(self, shards: list[int]) -> None:
        #: Candidate heap: (-score, canonical identity, result).
        self._heap: list[tuple[float, tuple, JoinResult]] = []
        #: Shard id → current frontier; removed once the shard exhausts.
        self._frontiers: dict[int, float] = {shard: float("inf") for shard in shards}
        self._offered = 0
        self._released = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def offer(self, outcome: AdvanceOutcome) -> None:
        """Fold one shard advance round into the merge state."""
        for result in outcome.results:
            heapq.heappush(
                self._heap, (-result.score, result_identity(result), result)
            )
            self._offered += 1
        if outcome.exhausted:
            self._frontiers.pop(outcome.shard, None)
        elif outcome.shard in self._frontiers:
            self._frontiers[outcome.shard] = outcome.frontier

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _top_score(self) -> float:
        return -self._heap[0][0] if self._heap else NEG_INF

    def pop_ready(self) -> JoinResult | None:
        """Release the best candidate if the emit gate passes, else None."""
        if not self._heap:
            return None
        score = self._top_score()
        if any(
            frontier >= score - SCORE_EPS for frontier in self._frontiers.values()
        ):
            return None
        self._released += 1
        return heapq.heappop(self._heap)[2]

    def done(self) -> bool:
        """True when no shard is live and every candidate was released."""
        return not self._frontiers and not self._heap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def blocking_shards(self) -> list[int]:
        """The shards that must advance before the top candidate can emit.

        With candidates buffered: the live shards whose frontier still
        reaches the top score.  With none: every live shard (no evidence
        yet about where the next result is).  Advancing only these keeps
        total work near serial — shards whose frontier already fell below
        the current release point are left untouched.
        """
        if not self._heap:
            return sorted(self._frontiers)
        score = self._top_score()
        return sorted(
            shard
            for shard, frontier in self._frontiers.items()
            if frontier >= score - SCORE_EPS
        )

    @property
    def threshold(self) -> float:
        """The global bound: max over live shard frontiers (−inf if none)."""
        return max(self._frontiers.values(), default=NEG_INF)

    @property
    def live_shards(self) -> list[int]:
        return sorted(self._frontiers)

    @property
    def pending_candidates(self) -> int:
        return len(self._heap)

    @property
    def best_candidate_score(self) -> float:
        """Score of the best buffered candidate (−inf when empty)."""
        return self._top_score()

    def frontier_of(self, shard: int) -> float:
        return self._frontiers.get(shard, NEG_INF)

    def snapshot(self) -> dict[str, Any]:
        return {
            "live_shards": self.live_shards,
            "threshold": self.threshold,
            "pending_candidates": self.pending_candidates,
            "offered": self._offered,
            "released": self._released,
        }
