"""Online adaptivity: live re-sharding of a running sharded rank join.

:class:`AdaptiveShardedRankJoin` wraps a :class:`ShardedRankJoin` behind
the same :class:`~repro.core.stepping.ResumableOperator` surface and
watches the *observed* per-shard pull counters (``shard_depths()`` — the
construction-time imbalance gauge only predicts; runtime skew is what
hurts).  When the hottest shard's pull share exceeds a configurable
threshold, the query is live-migrated to a re-partitioned layout:

1. build a fresh engine over the same instance with the skew-aware
   partitioner (and optionally a new shard count),
2. fast-forward it through the results already emitted (deterministic
   operators make the replayed prefix the emitted one), and
3. swap engines and continue from the exact emission point.

Correctness rests on the merge gate's emission-order invariance: the
global output sequence of a sharded rank join is independent of shard
count and partitioner (a result is released only when every live shard
frontier is below its score), so the replayed prefix is bit-identical to
the history by construction.  The wrapper still verifies the prefix
(content identity, not object identity) and aborts the migration — keeps
the old engine — on any mismatch, so adaptivity can never change answers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.stepping import PENDING, ResumableBase
from repro.exec.engine import ShardedRankJoin
from repro.exec.merge import result_identity
from repro.exec.worker import ExecConfig
from repro.obs import NULL_OBS, Observability, TraceContext
from repro.relation.relation import RankJoinInstance
from repro.stats.metrics import DepthReport


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for the online re-sharding monitor.

    ``threshold`` is on the same scale as ``PartitionStats.imbalance``:
    the hottest shard's observed pull share over the fair share (1.0 is
    perfect balance).  The monitor only acts after ``min_pulls`` total
    pulls and ``min_emitted`` emitted results, so early noise cannot
    trigger a migration before the replay primitive has anything to
    anchor on.
    """

    threshold: float = 1.5
    min_pulls: int = 512
    min_emitted: int = 1
    max_reshards: int = 1
    target_partitioner: str = "skew"
    shards: int | None = None
    heavy_fraction: float | None = None


class AdaptiveShardedRankJoin(ResumableBase):
    """A sharded rank join that re-partitions itself under observed skew."""

    def __init__(
        self,
        instance: RankJoinInstance,
        operator: str = "FRPA",
        *,
        config: ExecConfig | None = None,
        adaptive: AdaptiveConfig | None = None,
        obs: Observability | None = None,
        trace: TraceContext | None = None,
        **operator_kwargs,
    ) -> None:
        super().__init__()
        self.instance = instance
        self.operator_name = operator
        self.adaptive = adaptive or AdaptiveConfig()
        self._obs = obs if obs is not None else NULL_OBS
        self._trace = trace
        self._operator_kwargs = operator_kwargs
        self._engine = ShardedRankJoin(
            instance, operator, config=config, obs=obs, trace=trace,
            **operator_kwargs,
        )
        self._pulls_base = 0
        self._reshards = 0
        self._disabled = False
        self.plan_label: str | None = None

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def observed_imbalance(self) -> float:
        """Hottest shard's pull share over the fair share, live."""
        per_shard = [
            left + right for left, right in self._engine.shard_depths().values()
        ]
        total = sum(per_shard)
        if not per_shard or total == 0:
            return 1.0
        return max(per_shard) * len(per_shard) / total

    def _target_config(self) -> ExecConfig:
        adaptive = self.adaptive
        return replace(
            self._engine.config,
            shards=adaptive.shards or self._engine.config.shards,
            partitioner=adaptive.target_partitioner,
            heavy_fraction=(
                adaptive.heavy_fraction
                if adaptive.heavy_fraction is not None
                else self._engine.config.heavy_fraction
            ),
        )

    def _maybe_reshard(self) -> None:
        if self._disabled or self._reshards >= self.adaptive.max_reshards:
            return
        engine = self._engine
        if engine.config.shards < 2:
            self._disabled = True
            return
        if (
            engine.pulls < self.adaptive.min_pulls
            or len(self._history) < self.adaptive.min_emitted
        ):
            return
        if self.observed_imbalance() <= self.adaptive.threshold:
            return
        target = self._target_config()
        if (
            target.partitioner == engine.config.partitioner
            and target.shards == engine.config.shards
            and target.heavy_fraction == engine.config.heavy_fraction
        ):
            self._disabled = True  # nothing to change; stop checking
            return
        self._reshard(target)

    def _reshard(self, target: ExecConfig) -> None:
        """Migrate to ``target`` by replaying the emitted prefix."""
        old = self._engine
        fresh = ShardedRankJoin(
            self.instance, self.operator_name, config=target,
            obs=self._obs if self._obs.enabled else None, trace=self._trace,
            **self._operator_kwargs,
        )
        emitted = self._history
        replayed = fresh.top_k(len(emitted))
        same = len(replayed) == len(emitted) and all(
            a.score == b.score and result_identity(a) == result_identity(b)
            for a, b in zip(replayed, emitted)
        )
        if not same:  # pragma: no cover - safety net, unreachable by design
            self._disabled = True
            self._obs.metrics.counter(
                "planner_reshard_aborts_total", op=old.operator_name
            ).inc()
            return
        self._pulls_base += old.pulls
        self._engine = fresh
        self._reshards += 1
        self._obs.metrics.counter(
            "planner_reshards_total",
            op=self.operator_name,
            partitioner=target.partitioner,
        ).inc()

    # ------------------------------------------------------------------
    # ResumableOperator interface (the rest comes from ResumableBase)
    # ------------------------------------------------------------------
    def try_next(self, max_pulls: int | None = None):
        """The current engine's bounded step, monitor hook first.

        The history is kept here, not read off the engine, so the
        retained prefix survives a migration.  A zero-pull call promises
        no work, so it never migrates (the replay pulls).
        """
        if max_pulls != 0:
            self._maybe_reshard()
        result = self._engine.try_next(max_pulls)
        if result is not None and result is not PENDING:
            self._history.append(result)
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"adaptive[{self._engine.name}]"

    @property
    def pulls(self) -> int:
        """Monotonic across migrations (includes replay pulls)."""
        return self._pulls_base + self._engine.pulls

    @property
    def reshards(self) -> int:
        return self._reshards

    @property
    def config(self) -> ExecConfig:
        return self._engine.config

    @property
    def bound_value(self) -> float:
        return self._engine.bound_value

    def frontier(self) -> float:
        return self._engine.frontier()

    def depths(self) -> DepthReport:
        return self._engine.depths()

    def shard_depths(self) -> dict[int, tuple[int, int]]:
        return self._engine.shard_depths()

    @property
    def partition_stats(self):
        return self._engine.partition_stats

    @property
    def rounds(self) -> int:
        return self._engine.rounds

    def snapshot(self) -> dict:
        snap = self._engine.snapshot()
        snap["operator"] = self.name
        snap["reshards"] = self._reshards
        snap["observed_imbalance"] = round(self.observed_imbalance(), 3)
        if self.plan_label:
            snap["plan"] = self.plan_label
        return snap

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "AdaptiveShardedRankJoin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveShardedRankJoin({self.operator_name!r}, "
            f"shards={self._engine.config.shards}, reshards={self._reshards})"
        )
