"""Global top-K merge over shard output streams.

Hash partitioning makes shards independent: every join result lives in
exactly one shard, and each shard's operator emits its local results in
decreasing score order.  The merger only decides *when* a locally-emitted
result is globally safe to release: by every operator's release rule,
:func:`repro.core.pbrj.releasable`, with the live shards' highest
*frontier* as ``t`` — once no live shard can outrank or tie it.

A shard's frontier (:meth:`repro.core.pbrj.PBRJ.frontier`) combines its
bound ``t`` with its best buffered-but-unemitted result; it is
non-increasing, so the gate is monotone, and once K results pass it the
merge stops advancing shards whose frontier is below the K-th score.  The
candidates wait in a :class:`~repro.core.pbrj.Released` buffer: a tie's
members are all offered before the first passes, and leave in
:func:`~repro.core.pbrj.result_identity` order, whatever the shard count
or discovery order.  The sharded-equals-serial test enforces it.
"""

from __future__ import annotations

from typing import Any

from repro.core.pbrj import Released, releasable
from repro.core.tuples import JoinResult
from repro.exec.worker import AdvanceOutcome

NEG_INF = float("-inf")


class GlobalTopKMerger:
    """k-heap over shard outputs with the frontier emit gate."""

    def __init__(self, shards: list[int]) -> None:
        self.candidates = Released()
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
            self.candidates.push(result)
            self._offered += 1
        if outcome.exhausted:
            self._frontiers.pop(outcome.shard, None)
        elif outcome.shard in self._frontiers:
            self._frontiers[outcome.shard] = outcome.frontier

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop_ready(self) -> JoinResult | None:
        """Release the best candidate if the emit gate passes, else None."""
        if not self.candidates or not releasable(
            self.candidates.best(), self.threshold, not self._frontiers
        ):
            return None
        self._released += 1
        return self.candidates.pop()

    def done(self) -> bool:
        """True when no shard is live and every candidate was released."""
        return not self._frontiers and not self.candidates

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
        if not self.candidates:
            return sorted(self._frontiers)
        score = self.candidates.best()
        return sorted(
            shard
            for shard, frontier in self._frontiers.items()
            if not releasable(score, frontier)
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
        return len(self.candidates)

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
