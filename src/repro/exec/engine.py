"""`ShardedRankJoin` — the drop-in sharded rank join operator.

The facade wires the subsystem together: partition the instance
(:mod:`repro.exec.partition`), build one :class:`ShardWorker` per
non-trivial shard (:mod:`repro.exec.worker`), advance the blocking shards
one quantum each per round — ``worker.advance(quantum)``, in request
order, in this process — and release results through the
:class:`GlobalTopKMerger` gate (:mod:`repro.exec.merge`).

It satisfies :class:`repro.core.stepping.ResumableOperator` — the same
``get_next`` / ``try_next(max_pulls)`` / resumable ``top_k`` contract as
:class:`~repro.core.pbrj.PBRJ`, inherited from the same
:class:`~repro.core.stepping.ResumableBase` — so it drops into
:class:`~repro.service.session.QuerySession` and the scheduler unchanged.

Sharding is something a caller asks for (``shards=N``), never something
the planner picks: splitting an input raises depth, buys no parallelism
(every shard runs in this process) and lost every measured cell to the
best unsharded plan (EXPERIMENTS.md, "Sharding is asked for, never
chosen").  The one effect in its favour — each shard's covers are ~1/S the
size, so FR* bound maintenance is cheaper per pull — only narrows FRPA's
distance to HRJN* at e >= 3; it never closes it.
"""

from __future__ import annotations

from repro.core.stepping import PENDING, ResumableBase
from repro.exec.merge import GlobalTopKMerger
from repro.exec.partition import (
    HashPartitionPlan,
    PartitionStats,
    partition_instance,
)
from repro.exec.worker import ExecConfig, ShardWorker
from repro.obs import NULL_OBS, Observability, TraceContext, span_record
from repro.relation.relation import RankJoinInstance
from repro.stats.metrics import DepthReport


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
    obs:
        Optional :class:`~repro.obs.Observability`.  Records per-shard
        pull counters (``exec_shard_pulls_total``), a merge-wait round
        histogram (``exec_merge_wait_rounds``), the partition imbalance
        gauge (``exec_shard_imbalance``) — and, with an enabled
        pipeline, every worker records its quanta into it (``worker_*``
        metrics, one ``quantum`` trace record per advance).
    trace:
        Optional :class:`~repro.obs.TraceContext` this execution hangs
        under (the session span, for service-submitted queries).  With
        an enabled ``obs`` and no ``trace``, the engine roots a fresh
        trace so standalone runs still produce a connected tree.
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
        obs: Observability | None = None,
        trace: TraceContext | None = None,
        **operator_kwargs,
    ) -> None:
        super().__init__()
        self.config = config or ExecConfig()
        self.operator_name = operator
        self.name = f"sharded[{operator}]x{self.config.shards}"
        self._obs = obs if obs is not None else NULL_OBS

        shard_instances, self._partition_stats = partition_instance(
            instance, HashPartitionPlan(self.config.shards)
        )
        # One trace context per execution: a child of the caller's span
        # (service session) or a fresh root for standalone runs.  Each
        # worker gets a child context its quanta parent under.
        if self._obs.enabled:
            self.trace = trace.child() if trace is not None else TraceContext.root()
            self._obs.trace(span_record(
                self.trace, "exec", op=self.name, shards=self.config.shards,
            ))
        else:
            self.trace = None
        # Shards with an empty side can never produce a join result; they
        # are excluded entirely (an empty relation also has no score
        # dimension, which the bound plumbing could not digest).
        self._workers: dict[int, ShardWorker] = {}
        for index, shard in enumerate(shard_instances):
            if not (len(shard.left) and len(shard.right)):
                continue
            shard_ctx = None
            if self.trace is not None:
                shard_ctx = self.trace.child()
                self._obs.trace(span_record(
                    shard_ctx, "shard", op=self.name, shard=index,
                    left=len(shard.left), right=len(shard.right),
                ))
            self._workers[index] = ShardWorker(
                index, shard, operator, obs=self._obs, trace=shard_ctx,
                **operator_kwargs,
            )
        self._merger = GlobalTopKMerger(list(self._workers))

        self._pulls = 0
        self._rounds = 0
        self._rounds_at_last_emit = 0
        self._depths: dict[int, tuple[int, int]] = {
            shard: (0, 0) for shard in self._workers
        }

        metrics = self._obs.metrics
        self._m_shard_pulls = {
            shard: metrics.counter(
                "exec_shard_pulls_total", op=self.name, shard=str(shard)
            )
            for shard in self._workers
        }
        self._m_merge_wait = metrics.histogram("exec_merge_wait_rounds", op=self.name)
        self._m_rounds = metrics.counter("exec_rounds_total", op=self.name)
        metrics.gauge("exec_shard_imbalance", op=self.name).set(
            self._partition_stats.imbalance
        )

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
                self._m_merge_wait.observe(self._rounds - self._rounds_at_last_emit)
                self._rounds_at_last_emit = self._rounds
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
            self._depths[shard] = (outcome.depth_left, outcome.depth_right)
            self._m_shard_pulls[shard].inc(outcome.pulls)
            spent += outcome.pulls
        self._pulls += spent
        self._rounds += 1
        self._m_rounds.inc()
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
        return self._merger.best_candidate_score

    def depths(self) -> DepthReport:
        """Aggregate sumDepths: per-side totals over all shards."""
        left = sum(depth[0] for depth in self._depths.values())
        right = sum(depth[1] for depth in self._depths.values())
        return DepthReport(left, right)

    def shard_depths(self) -> dict[int, tuple[int, int]]:
        """Per-shard (left, right) depths — the imbalance diagnostic."""
        return dict(self._depths)

    @property
    def partition_stats(self) -> PartitionStats:
        return self._partition_stats

    @property
    def rounds(self) -> int:
        """Advance rounds driven so far."""
        return self._rounds

    def snapshot(self) -> dict:
        return {
            "operator": self.name,
            "config": {
                "shards": self.config.shards,
                "quantum": self.config.quantum,
            },
            "pulls": self._pulls,
            "rounds": self._rounds,
            "emitted": len(self._history),
            "imbalance": self._partition_stats.imbalance,
            "merge": self._merger.snapshot(),
        }

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedRankJoin({self.operator_name!r}, shards={self.config.shards}, "
            f"pulls={self._pulls}, live={self._merger.live_shards})"
        )
