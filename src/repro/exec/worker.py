"""Shard workers: one resumable rank join operator per shard.

A :class:`ShardWorker` owns a shard-local operator (any entry of
:data:`repro.core.operators.OPERATORS` — PBRJ with corner/FR/FR*/aFR
bounds and RR/PA pulling) and advances it in bounded *pull quanta*.  Each
:meth:`ShardWorker.advance` call performs at most ``quantum`` pulls,
collects every result the operator emitted along the way, and returns an
:class:`AdvanceOutcome` — a picklable snapshot the merge layer consumes.
Workers never talk to each other; all coordination happens through the
outcomes (the global threshold is ``max`` over shard frontiers, computed
by :class:`repro.exec.merge.GlobalTopKMerger`).

Workers optionally carry their own telemetry pipeline
(:class:`~repro.exec.telemetry.WorkerTelemetry`): a real metric registry
and tracer running *inside* the worker — and therefore inside the forked
child on the process backend — whose delta snapshots ride home
piggybacked on the outcome (:attr:`AdvanceOutcome.telemetry`).  The pipe
still only ever carries outcomes; telemetry costs zero extra round
trips, and workers without telemetry behave exactly as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.operators import make_operator
from repro.core.stepping import PENDING
from repro.core.tuples import JoinResult
from repro.errors import InstanceError
from repro.relation.relation import RankJoinInstance

#: Where a shard's advance runs: in-line in this process, or in a forked
#: child.  The one definition every surface reads (``ExecConfig``,
#: ``QuerySpec``, workload files, the CLI, the chaos suite, the wire).
BACKENDS = ("serial", "process")


def check_backend(name: str) -> None:
    """Reject anything outside :data:`BACKENDS` with a one-line error."""
    if name not in BACKENDS:
        raise InstanceError(f"unknown backend {name!r}; choose from {BACKENDS}")


#: Partitioners accepted by :class:`ExecConfig` (see repro.exec.partition).
PARTITIONERS = ("hash", "skew")

#: Default per-round pull quantum.  Small enough that shards overshoot the
#: serial stopping depth by at most a few tuples (the sumDepths overhead),
#: large enough to amortize scheduling.
DEFAULT_QUANTUM = 32


@dataclass(frozen=True)
class ExecConfig:
    """Configuration of a sharded execution run.

    The point-set kernel is not part of it: selection is process-wide
    (:func:`repro.kernels.set_backend`) and fork-based process children
    inherit whatever is active when the engine starts them.

    Parameters
    ----------
    shards:
        Number of hash partitions (1 = no sharding benefit, still valid).
    backend:
        ``"serial"`` (default: in-line loop over in-process workers) or
        ``"process"`` (persistent ``multiprocessing`` children over
        pipes).
    quantum:
        Pulls granted to a shard per advance round.
    partitioner:
        ``"hash"`` or ``"skew"`` (heavy hitters on dedicated shards).
    heavy_fraction:
        Skew partitioner knob: a key is heavy when its estimated result
        share exceeds this fraction (default ``1 / shards``).
    resilience:
        Optional :class:`repro.resilience.ResilienceConfig`.  ``None``
        (default) runs the raw backend with no recovery machinery; any
        config wraps the backend in a
        :class:`~repro.resilience.ResilientBackend` (retry with backoff,
        worker respawn with state replay, graceful degradation), with
        fault injection only when the config carries a non-empty plan.
    """

    shards: int = 1
    backend: str = "serial"
    quantum: int = DEFAULT_QUANTUM
    partitioner: str = "hash"
    heavy_fraction: float | None = None
    resilience: object | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InstanceError("ExecConfig.shards must be >= 1")
        if self.quantum < 1:
            raise InstanceError("ExecConfig.quantum must be >= 1")
        check_backend(self.backend)
        if self.partitioner not in PARTITIONERS:
            raise InstanceError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choose from {PARTITIONERS}"
            )


@dataclass(frozen=True)
class AdvanceOutcome:
    """Everything one advance round of one shard produced.

    ``frontier`` is the shard's upper bound on any result it can still
    emit (see :meth:`repro.core.pbrj.PBRJ.frontier`) — non-increasing,
    ``-inf`` once drained.  ``exhausted`` means the shard's operator
    returned ``None``: the shard is complete and will never be advanced
    again.  The dataclass is pickle-friendly so the process backend can
    ship it over a pipe unchanged.

    ``telemetry`` is an optional :class:`~repro.exec.telemetry.
    TelemetryCapsule` — the worker's metric/span/trace delta since its
    previous outcome, piggybacked here so the process backend relays
    child-side telemetry with no extra IPC.  Excluded from equality:
    two outcomes that advance the merge identically *are* equal, with
    or without the telemetry payload.
    """

    shard: int
    results: tuple[JoinResult, ...]
    pulls: int
    depth_left: int
    depth_right: int
    frontier: float
    exhausted: bool = field(default=False)
    telemetry: object | None = field(default=None, compare=False)


class ShardWorker:
    """One shard's operator plus the bounded-advance protocol around it."""

    def __init__(
        self,
        shard: int,
        instance: RankJoinInstance,
        operator: str = "FRPA",
        *,
        telemetry=None,
        **operator_kwargs,
    ) -> None:
        self.shard = shard
        self.instance = instance
        self.operator_name = operator
        self._operator_kwargs = dict(operator_kwargs)
        # ``track_time=False``: per-pull span timing on every shard is pure
        # overhead — the worker times whole quanta instead (one clock pair
        # per advance), and the engine reports facade-level wall clock.
        self._operator = make_operator(
            operator, instance, track_time=False, **operator_kwargs
        )
        self._exhausted = False
        #: Optional :class:`~repro.exec.telemetry.WorkerTelemetry`; when
        #: set, every advance records a timed quantum and the outcome
        #: carries the drained delta capsule.
        self._telemetry = telemetry

    def clone_fresh(self) -> "ShardWorker":
        """A pristine worker over the same partition, zero pulls performed.

        The respawn recipe: the resilience layer rebuilds a lost worker
        from this and fast-forwards it by replaying the shard's recorded
        advance history (deterministic operators make the replayed state
        bit-identical to the state that died).  The clone keeps the
        shard's trace context (fresh counters, same span in the tree).
        """
        telemetry = self._telemetry.clone() if self._telemetry is not None else None
        return ShardWorker(
            self.shard,
            self.instance,
            self.operator_name,
            telemetry=telemetry,
            **self._operator_kwargs,
        )

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def pulls(self) -> int:
        return self._operator.pulls

    @property
    def trace_ctx(self):
        """The shard's trace context, or None for untraced workers."""
        return self._telemetry.ctx if self._telemetry is not None else None

    def advance(self, quantum: int) -> AdvanceOutcome:
        """Spend at most ``quantum`` pulls; return everything emitted.

        Zero-pull emissions (results already provable from buffered
        state) are drained too — the loop only stops on PENDING, on
        exhaustion, or once the quantum is used up with nothing further
        provable.  Calling ``advance`` on an exhausted worker is a no-op
        returning an empty outcome.
        """
        operator = self._operator
        telemetry = self._telemetry
        started = time.perf_counter() if telemetry is not None else 0.0
        start_pulls = operator.pulls
        results: list[JoinResult] = []
        while not self._exhausted:
            remaining = quantum - (operator.pulls - start_pulls)
            step = operator.try_next(max_pulls=max(0, remaining))
            if step is PENDING:
                break
            if step is None:
                self._exhausted = True
                break
            results.append(step)
        pulls = operator.pulls - start_pulls
        capsule = None
        if telemetry is not None:
            telemetry.record_quantum(
                quantum, pulls, len(results), time.perf_counter() - started
            )
            capsule = telemetry.drain()
        return AdvanceOutcome(
            shard=self.shard,
            results=tuple(results),
            pulls=pulls,
            depth_left=operator.depth(0),
            depth_right=operator.depth(1),
            frontier=operator.frontier(),
            exhausted=self._exhausted,
            telemetry=capsule,
        )
