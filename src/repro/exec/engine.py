"""`ShardedRankJoin` — the sharded rank join operator.

The facade wires the subsystem together: partition the instance
(:mod:`repro.exec.partition`), build one :class:`ShardWorker` per
non-trivial shard (:mod:`repro.exec.worker`), advance the blocking shards
one quantum each per round — ``worker.advance(quantum)``, in request
order, in this process — and release results through the
:class:`GlobalTopKMerger` gate (:mod:`repro.exec.merge`).

It satisfies :class:`repro.core.stepping.ResumableOperator` — the same
``get_next`` / ``try_next(max_pulls)`` / resumable ``top_k`` contract as
:class:`~repro.core.pbrj.PBRJ`, inherited from the same
:class:`~repro.core.stepping.ResumableBase`.

No query, flag, workload file or wire request can ask for it: splitting
an input raises depth, buys no parallelism (every shard runs in this
process) and lost every measured cell to the best unsharded plan
(EXPERIMENTS.md, "Sharding is asked for, never chosen").  The class is
kept only because the frozen benchmark harness builds it directly for its
``exec.shards2_ratio`` probe.
"""

from __future__ import annotations

from repro.core.stepping import PENDING, ResumableBase
from repro.exec.merge import GlobalTopKMerger
from repro.exec.partition import HashPartitionPlan, partition_instance
from repro.exec.worker import ExecConfig, ShardWorker
from repro.relation.relation import RankJoinInstance


class ShardedRankJoin(ResumableBase):
    """Hash-partitioned rank join with a provably-correct merge.

    Parameters
    ----------
    instance:
        The problem instance; partitioned by join key at construction.
    operator:
        Any name from :data:`repro.core.operators.OPERATORS` — every
        shard runs a fresh instance of it.
    config:
        :class:`~repro.exec.worker.ExecConfig` (shards, quantum).
        Defaults to a single shard.
    operator_kwargs:
        Forwarded to the operator factory (e.g. ``max_cr_size`` for
        ``a-FRPA``).
    """

    def __init__(
        self,
        instance: RankJoinInstance,
        operator: str = "FRPA",
        *,
        config: ExecConfig | None = None,
        **operator_kwargs,
    ) -> None:
        super().__init__()
        self.config = config or ExecConfig()
        # Shards with an empty side can never produce a join result; they
        # are excluded entirely (an empty relation also has no score
        # dimension, which the bound plumbing could not digest).
        self._workers: dict[int, ShardWorker] = {
            index: ShardWorker(index, shard, operator, **operator_kwargs)
            for index, shard in enumerate(partition_instance(
                instance, HashPartitionPlan(self.config.shards)))
            if len(shard.left) and len(shard.right)
        }
        self._merger = GlobalTopKMerger(list(self._workers))
        self._pulls = 0
        self._depths: dict[int, tuple[int, ...]] = {
            shard: (0, 0) for shard in self._workers
        }

    # ------------------------------------------------------------------
    # ResumableOperator interface (the rest comes from ResumableBase)
    # ------------------------------------------------------------------
    def try_next(self, max_pulls: int | None = None):
        """Bounded step: the next global result, ``None`` (exhausted), or
        ``PENDING``.

        ``max_pulls`` budgets the *total* pulls across all shards this
        call; advance rounds are sized so the budget is never exceeded.
        ``try_next(max_pulls=0)`` releases already-gated candidates
        without pulling, mirroring the PBRJ contract.
        """
        spent = 0
        while True:
            ready = self._merger.pop_ready()
            if ready is not None:
                self._history.append(ready)
                return ready
            if self._merger.done():
                return None
            if max_pulls is not None and spent >= max_pulls:
                return PENDING
            budget = None if max_pulls is None else max_pulls - spent
            spent += self._advance_round(budget)

    @property
    def pulls(self) -> int:
        """Total pulls across all shards (the sumDepths cost so far)."""
        return self._pulls

    def _advance_round(self, budget: int | None) -> int:
        """Advance the blocking shards one quantum each; return pulls spent."""
        granted = spent = 0
        for shard in self._merger.blocking_shards():
            quantum = self.config.quantum
            if budget is not None:
                # Grants are sized against the quanta handed out, not the
                # pulls used, so the round is fixed before any shard runs.
                quantum = min(quantum, budget - granted)
                if quantum <= 0:
                    break
            granted += quantum
            outcome = self._workers[shard].advance(quantum)
            self._merger.offer(outcome)
            self._depths[shard] = outcome.depths
            spent += outcome.pulls
        self._pulls += spent
        return spent

    # ------------------------------------------------------------------
    # Reporting (PBRJ-compatible where QuerySession needs it)
    # ------------------------------------------------------------------
    @property
    def bound_value(self) -> float:
        """The global threshold: max over live shard frontiers."""
        return self._merger.threshold

    def frontier(self) -> float:
        """Best score this engine can still release (threshold vs buffer)."""
        return max(self._merger.threshold, self.best_buffered())

    def best_buffered(self) -> float:
        """Score of the best candidate held at the merge gate; ``-inf`` if none."""
        return self._merger.candidates.best()

    def depths(self) -> list[int]:
        """Per-input totals over all shards."""
        return [sum(depth[side] for depth in self._depths.values()) for side in (0, 1)]

    @property
    def sum_depths(self) -> int:
        return sum(map(sum, self._depths.values()))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: the workers are plain objects.  Kept, with
        ``with`` support, for callers written against the engine that
        owned child processes (the frozen benchmark harness among them)."""

    def __enter__(self) -> "ShardedRankJoin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
