"""The resilient execution backend: retry, respawn, replay, degrade.

:class:`ResilientBackend` wraps any raw :class:`~repro.exec.backends.
ExecBackend` and makes shard faults invisible to the engine above it —
every ``advance`` round returns exactly the outcomes a fault-free run
would have produced, in the same order, bit for bit:

* **Transient faults** (:class:`~repro.errors.ShardError`) — the advance
  is re-issued to the intact worker under exponential backoff with
  seeded jitter (:class:`~repro.resilience.retry.RetryPolicy`).
* **Lost workers** (:class:`~repro.errors.WorkerLost`) — the shard is
  *respawned with state replay*: a pristine worker is rebuilt over the
  shard's partition (``ShardWorker.clone_fresh``), fast-forwarded by
  replaying the recorded sequence of successful advance quanta through
  the resumable ``try_next`` protocol (deterministic operators make the
  replayed state bit-identical to the state that died, including the
  frontier the merger last saw), reinstalled via
  ``ExecBackend.replace_worker``, and the failed advance re-issued.
  Replayed emissions are discarded — the merger already holds them.
* **Repeated respawn failure** — after ``max_respawns`` respawns of one
  shard, the whole backend *degrades* from ``process`` to ``serial``:
  every shard is rebuilt by replay in this process and the in-flight
  round resumes there.  ``serial`` is the floor — in-process replay
  recovery always completes.

Correctness argument, in one paragraph: the merge gate only ever consumes
``AdvanceOutcome`` values, and the supervisor guarantees the stream of
outcomes per shard is exactly the fault-free stream.  A fault fires
before its worker advances, so the failed advance contributed nothing;
replaying the recorded quanta reproduces the pre-fault operator state
(same pulls → same emissions → same frontier, by operator determinism);
re-issuing the failed quantum then yields the outcome the fault-free run
would have produced.  Emission order is fixed by the engine's
deterministic round/request order, which the supervisor preserves.

Observability: ``resilience_retries_total{kind}``,
``worker_respawns_total``, ``resilience_degrades_total`` counters, plus
the :attr:`ResilientBackend.degraded` flag surfaced through engine
snapshots and serve responses.  With tracing armed (workers carrying a
:class:`~repro.exec.telemetry.WorkerTelemetry`), every retry and respawn
also emits a ``retry``/``respawn`` span under the shard's trace context,
and telemetry from replayed quanta merges in under a ``replay="1"``
label — the whole recovery story is reconstructable per request.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import ShardError, WorkerLost
from repro.exec.backends import ExecBackend, SerialBackend
from repro.exec.telemetry import CapsuleSink
from repro.exec.worker import AdvanceOutcome, ShardWorker
from repro.obs import NULL_OBS, Observability, span_record
from repro.resilience.faults import (
    LOST_KINDS,
    NO_FAULTS,
    TRANSIENT_KINDS,
    FaultPlan,
    InjectingWorker,
)
from repro.resilience.retry import RetryPolicy

#: Hard cap on recovery actions for a single advance — a backstop against
#: pathological schedules; finite fault plans never reach it.
ADVANCE_RECOVERY_CAP = 32


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for :class:`ResilientBackend` (pure data, picklable).

    ``plan`` defaults to the empty :data:`~repro.resilience.faults.
    NO_FAULTS` — recovery machinery armed, nothing injected.  ``seed``
    drives backoff jitter (and nothing else): results are identical for
    any seed, only retry timing varies.
    """

    plan: FaultPlan = NO_FAULTS
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_respawns: int = 3
    degrade: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ValueError("ResilienceConfig.max_respawns must be >= 0")


class ResilientBackend(ExecBackend):
    """Fault-tolerant wrapper around a raw execution backend."""

    def __init__(
        self,
        inner: ExecBackend,
        *,
        config: ResilienceConfig | None = None,
        obs: Observability | None = None,
        sleep=time.sleep,
    ) -> None:
        self._inner = inner
        self._cfg = config or ResilienceConfig()
        self._rng = random.Random(self._cfg.seed)
        self._sleep = sleep
        self._tier = inner.name
        self.degraded = False
        self._recipes: dict[int, ShardWorker] = {}
        #: Shard → successful advance quanta, in order (the replay log).
        self._log: dict[int, list[int]] = {}
        #: Shard → remaining fault schedule (supervisor's authoritative copy).
        self._schedules: dict[int, list] = {}
        self._respawn_count: dict[int, int] = {}
        #: Requests begun but not yet collected in the current round.
        self._round: dict[int, int] = {}

        self._obs = obs if obs is not None else NULL_OBS
        #: Receiver for telemetry capsules produced by *replayed* quanta —
        #: the engine never sees those outcomes, so the supervisor merges
        #: them itself, labelled ``replay="1"``.
        self._sink = CapsuleSink(self._obs, "resilient")
        metrics = self._obs.metrics
        self._m_retries = {
            "transient": metrics.counter("resilience_retries_total", kind="transient"),
            "worker-lost": metrics.counter(
                "resilience_retries_total", kind="worker-lost"
            ),
        }
        self._m_respawns = metrics.counter("worker_respawns_total")
        self._m_degrades = metrics.counter("resilience_degrades_total")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:  # type: ignore[override]
        return f"resilient[{self._tier}]"

    @property
    def tier(self) -> str:
        """The currently-active raw backend tier."""
        return self._tier

    @property
    def respawns(self) -> dict[int, int]:
        return dict(self._respawn_count)

    # ------------------------------------------------------------------
    # ExecBackend interface
    # ------------------------------------------------------------------
    def start(self, workers: list[ShardWorker]) -> None:
        self._recipes = {worker.shard: worker.clone_fresh() for worker in workers}
        self._log = {worker.shard: [] for worker in workers}
        self._respawn_count = {worker.shard: 0 for worker in workers}
        self._schedules = {
            worker.shard: list(self._cfg.plan.for_shard(worker.shard))
            for worker in workers
        }
        self._install(self._inner, workers)

    def advance(self, requests: list[tuple[int, int]]) -> list[AdvanceOutcome]:
        self._round = dict(requests)
        self._inner.begin(requests)
        outcomes = []
        for shard, quantum in requests:
            outcomes.append(self._collect_recovering(shard, quantum))
            self._round.pop(shard, None)
        return outcomes

    def close(self) -> None:
        self._inner.close()

    # ------------------------------------------------------------------
    # Recovery core
    # ------------------------------------------------------------------
    def _collect_recovering(self, shard: int, quantum: int) -> AdvanceOutcome:
        transient_attempts = 0
        recoveries = 0
        while True:
            try:
                outcome = self._inner.collect(shard, quantum)
            except WorkerLost:
                recoveries += 1
                if recoveries > ADVANCE_RECOVERY_CAP:
                    raise
                self._m_retries["worker-lost"].inc()
                self._m_respawns.inc()
                self._trace_recovery(shard, "respawn", quantum=quantum)
                if self._inner.ships_faults:
                    self._consume_observed(shard, LOST_KINDS)
                self._respawn_count[shard] += 1
                if (
                    self._cfg.degrade
                    and self._respawn_count[shard] > self._cfg.max_respawns
                    and self._degrade()
                ):
                    continue  # degraded tier re-began the whole round
                self._respawn_shard(shard)
                self._inner.begin([(shard, quantum)])
                continue
            except ShardError:
                transient_attempts += 1
                if transient_attempts >= self._cfg.retry.max_attempts:
                    raise
                self._m_retries["transient"].inc()
                self._trace_recovery(
                    shard, "retry", quantum=quantum, attempt=transient_attempts
                )
                if self._inner.ships_faults:
                    self._consume_observed(shard, TRANSIENT_KINDS)
                self._sleep(self._cfg.retry.delay(transient_attempts, self._rng))
                self._inner.begin([(shard, quantum)])
                continue
            self._log[shard].append(quantum)
            return outcome

    def _rebuild(self, shard: int) -> ShardWorker:
        """A fresh worker fast-forwarded to the shard's recorded depth.

        Re-feeds the shard's partition (``clone_fresh``) and replays the
        recorded pull history through the resumable advance protocol.
        Replayed emissions are dropped — the merge layer absorbed the
        originals from the successful outcomes being replayed.
        """
        worker = self._recipes[shard].clone_fresh()
        for quantum in self._log[shard]:
            outcome = worker.advance(quantum)
            # Replayed quanta still produce telemetry (the fresh worker
            # re-earns its counters); the engine never sees these
            # outcomes, so absorb them here under a ``replay`` label —
            # primary series stay exact, recovery cost stays visible.
            self._sink.absorb(outcome.telemetry, replayed=True)
        return worker

    def _respawn_shard(self, shard: int) -> None:
        worker = self._rebuild(shard)
        if self._inner.ships_faults:
            self._inner.replace_worker(
                shard, worker, tuple(self._schedules[shard])
            )
        else:
            self._inner.replace_worker(
                shard,
                InjectingWorker(worker, self._schedules[shard], sleep=self._sleep),
            )

    def _degrade(self) -> bool:
        """Fall from ``process`` to ``serial``; False when already there."""
        if self._tier == SerialBackend.name:
            return False
        replacement = SerialBackend()
        workers = [self._rebuild(shard) for shard in sorted(self._recipes)]
        self._install(replacement, workers)
        old = self._inner
        self._inner = replacement
        self._tier = replacement.name
        old.close()
        self.degraded = True
        self._m_degrades.inc()
        self._obs.event(
            "resilience_degrade", from_tier=old.name, to_tier=self._tier
        )
        # Resume the in-flight round on the new tier: every uncollected
        # request (including the one that triggered degradation) is
        # re-begun here, so the collect loop just retries.
        pending = list(self._round.items())
        if pending:
            replacement.begin(pending)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _install(self, backend: ExecBackend, workers: list[ShardWorker]) -> None:
        """Start ``backend`` over ``workers`` with fault injection wired."""
        if backend.ships_faults:
            backend.fault_specs = {
                worker.shard: tuple(self._schedules.get(worker.shard, ()))
                for worker in workers
            }
            backend.start(workers)
        else:
            backend.start([
                InjectingWorker(
                    worker,
                    self._schedules.setdefault(worker.shard, []),
                    sleep=self._sleep,
                )
                for worker in workers
            ])

    def _trace_recovery(self, shard: int, name: str, **fields) -> None:
        """Emit a recovery span under the shard's trace context.

        Recipes keep each shard's :class:`~repro.obs.TraceContext`
        through ``clone_fresh``, so retries and respawns land in the
        same trace tree as the quanta they recover — the acceptance
        criterion that recovery actions are attributable per request.
        """
        if not self._obs.enabled:
            return
        recipe = self._recipes.get(shard)
        ctx = getattr(recipe, "trace_ctx", None)
        if ctx is None:
            return
        self._obs.trace(
            span_record(ctx.child(), name, shard=shard, tier=self._tier, **fields)
        )

    def _consume_observed(self, shard: int, kinds: frozenset[str]) -> None:
        """Mirror a child-side fault pop in the supervisor's schedule.

        Children consume their shipped schedule in order; the parent only
        *observes* kill/pipe/transient firings.  Any skipped leading
        entries (delays that fired silently in the child) are dropped
        along with the first entry of the observed class.
        """
        schedule = self._schedules.get(shard, [])
        while schedule:
            fault = schedule.pop(0)
            if fault.kind in kinds:
                break
