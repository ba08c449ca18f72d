"""`ShardedRankJoin` — the drop-in sharded rank join operator.

The facade wires the subsystem together: partition the instance
(:mod:`repro.exec.partition`), build one :class:`ShardWorker` per
non-trivial shard (:mod:`repro.exec.worker`), run advance rounds on the
configured backend (:mod:`repro.exec.backends`), and release results
through the :class:`GlobalTopKMerger` gate (:mod:`repro.exec.merge`).

It satisfies :class:`repro.core.stepping.ResumableOperator` — the same
``get_next`` / ``try_next(max_pulls)`` / resumable ``top_k`` contract as
:class:`~repro.core.pbrj.PBRJ`, inherited from the same
:class:`~repro.core.stepping.ResumableBase` — so it drops into
:class:`~repro.service.session.QuerySession` and the scheduler unchanged.

Why sharding helps even on one core: the expensive part of tight bounds
is cover/skyline maintenance, whose per-pull cost grows superlinearly
with the discovered-region size (FR* recombination is O(|CR|·|SHR|)).
Each shard sees ~1/S of the data, so its cover stays ~S× smaller and the
per-pull bound cost drops ~S²× — an algorithmic speedup on top of (and
independent of) whatever parallelism the backend provides.
"""

from __future__ import annotations

from repro import kernels
from repro.core.stepping import PENDING, ResumableBase
from repro.exec.backends import make_backend
from repro.exec.merge import GlobalTopKMerger
from repro.exec.partition import PartitionStats, make_plan, partition_instance
from repro.exec.telemetry import CapsuleSink, WorkerTelemetry
from repro.exec.worker import AdvanceOutcome, ExecConfig, ShardWorker
from repro.obs import NULL_OBS, Observability, TraceContext, span_record
from repro.relation.relation import RankJoinInstance
from repro.stats.metrics import DepthReport


class ShardedRankJoin(ResumableBase):
    """Hash-partitioned parallel rank join with a provably-correct merge.

    Parameters
    ----------
    instance:
        The problem instance; partitioned by join key at construction.
    operator:
        Any name from :data:`repro.core.operators.OPERATORS` — every
        shard runs a fresh instance of it.
    config:
        :class:`~repro.exec.worker.ExecConfig` (shards, backend, quantum,
        partitioner).  Defaults to a single shard run in-line.
    obs:
        Optional :class:`~repro.obs.Observability`.  Records per-shard
        pull counters (``exec_shard_pulls_total``), a merge-wait round
        histogram (``exec_merge_wait_rounds``), the partition imbalance
        gauge (``exec_shard_imbalance``) — and, with an enabled
        pipeline, arms every worker with its own
        :class:`~repro.exec.telemetry.WorkerTelemetry` whose relayed
        capsules (``worker_*`` metrics, quantum trace records) merge
        back here.
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

        plan = make_plan(
            instance.left,
            instance.right,
            self.config.shards,
            partitioner=self.config.partitioner,
            heavy_fraction=self.config.heavy_fraction,
        )
        shard_instances, self._partition_stats = partition_instance(instance, plan)
        # One trace context per execution: a child of the caller's span
        # (service session) or a fresh root for standalone runs.  Each
        # worker gets a child context + its own telemetry pipeline, so
        # quanta recorded inside forked children still parent correctly.
        if self._obs.enabled:
            self.trace = trace.child() if trace is not None else TraceContext.root()
            self._obs.trace(span_record(
                self.trace, "exec", op=self.name,
                shards=self.config.shards, backend=self.config.backend,
            ))
        else:
            self.trace = None
        self._sink = CapsuleSink(self._obs, self.name)
        # Shards with an empty side can never produce a join result; they
        # are excluded entirely (an empty relation also has no score
        # dimension, which the bound plumbing could not digest).
        workers = []
        for index, shard in enumerate(shard_instances):
            if not (len(shard.left) and len(shard.right)):
                continue
            telemetry = None
            if self.trace is not None:
                shard_ctx = self.trace.child()
                self._obs.trace(span_record(
                    shard_ctx, "shard", op=self.name, shard=index,
                    left=len(shard.left), right=len(shard.right),
                ))
                telemetry = WorkerTelemetry(index, shard_ctx)
            workers.append(
                ShardWorker(index, shard, operator, telemetry=telemetry,
                            **operator_kwargs)
            )
        self._merger = GlobalTopKMerger([worker.shard for worker in workers])
        backend = make_backend(self.config.backend)
        if self.config.resilience is not None:
            # Imported lazily: repro.resilience builds on this package.
            from repro.resilience import ResilientBackend

            backend = ResilientBackend(
                backend, config=self.config.resilience, obs=self._obs
            )
        self._backend = backend
        self._backend.start(workers)
        self._closed = False

        self._pulls = 0
        self._rounds = 0
        self._rounds_at_last_emit = 0
        self._depths: dict[int, tuple[int, int]] = {
            worker.shard: (0, 0) for worker in workers
        }

        metrics = self._obs.metrics
        self._m_shard_pulls = {
            worker.shard: metrics.counter(
                "exec_shard_pulls_total", op=self.name, shard=str(worker.shard)
            )
            for worker in workers
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
        targets = self._merger.blocking_shards()
        requests: list[tuple[int, int]] = []
        granted = 0
        for shard in targets:
            quantum = self.config.quantum
            if budget is not None:
                quantum = min(quantum, budget - granted)
                if quantum <= 0:
                    break
            requests.append((shard, quantum))
            granted += quantum
        outcomes = self._backend.advance(requests)
        self._rounds += 1
        self._m_rounds.inc()
        spent = 0
        for outcome in outcomes:
            self._absorb(outcome)
            spent += outcome.pulls
        return spent

    def _absorb(self, outcome: AdvanceOutcome) -> None:
        self._merger.offer(outcome)
        self._pulls += outcome.pulls
        self._depths[outcome.shard] = (outcome.depth_left, outcome.depth_right)
        self._m_shard_pulls[outcome.shard].inc(outcome.pulls)
        self._sink.absorb(outcome.telemetry)

    # ------------------------------------------------------------------
    # Reporting (PBRJ-compatible where QuerySession needs it)
    # ------------------------------------------------------------------
    @property
    def bound_value(self) -> float:
        """The global threshold: max over live shard frontiers."""
        return self._merger.threshold

    def frontier(self) -> float:
        """Best score this engine can still release (threshold vs buffer)."""
        return max(self._merger.threshold, self._merger.best_candidate_score)

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

    @property
    def degraded(self) -> bool:
        """True once the resilient backend fell to a lower execution tier."""
        return bool(getattr(self._backend, "degraded", False))

    def snapshot(self) -> dict:
        return {
            "operator": self.name,
            "config": {
                "shards": self.config.shards,
                "backend": self.config.backend,
                "quantum": self.config.quantum,
                "partitioner": self.config.partitioner,
                "kernel": kernels.kernel_name(),
            },
            "pulls": self._pulls,
            "rounds": self._rounds,
            "emitted": len(self._history),
            "imbalance": self._partition_stats.imbalance,
            "degraded": self.degraded,
            "backend_tier": getattr(
                self._backend, "tier", getattr(self._backend, "name", "?")
            ),
            "merge": self._merger.snapshot(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (child processes)."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    def __enter__(self) -> "ShardedRankJoin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedRankJoin({self.operator_name!r}, shards={self.config.shards}, "
            f"backend={self.config.backend!r}, pulls={self._pulls}, "
            f"live={self._merger.live_shards})"
        )
