"""Deterministic, seeded fault injection for the exec and service stacks.

A :class:`FaultPlan` is a frozen schedule of :class:`FaultSpec` entries —
*which shard*, *at which cumulative pull depth*, *which failure*.  Plans
are pure data (picklable, hashable) so the process backend can ship a
shard's schedule into its child, and a seeded plan replays identically
run after run.  The default plan is empty: every injection hook is a
strict no-op unless a plan is supplied.

Fault kinds
-----------
``worker-kill``
    The shard's worker dies before advancing (process child ``_exit``;
    in-process workers raise :class:`~repro.errors.WorkerLost`).
    Recovery requires respawn + state replay.
``pipe-drop``
    The worker's reply channel drops mid-round (child closes its pipe and
    exits).  Indistinguishable from a kill at the parent; exercises the
    EOF path specifically.
``delay``
    The reply is delayed by :attr:`FaultSpec.delay` seconds.  Never
    changes results; exercises deadline/latency machinery.
``transient``
    The shard reports a retryable :class:`~repro.errors.ShardError`
    *without* touching operator state — a clean re-issue succeeds.

Every fault fires **before** the worker advances, so an injected failure
never leaves an operator half-advanced: replay from the recorded history
reconstructs the exact pre-fault state.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.errors import ShardError, WorkerLost
from repro.exec.backends import _due_fault
from repro.exec.worker import ShardWorker
from repro.service import wire

#: Fault kinds a plan may schedule (see module docstring).
FAULT_KINDS = ("worker-kill", "pipe-drop", "delay", "transient")

#: Kinds whose firing destroys the worker (recovery = respawn + replay).
LOST_KINDS = frozenset({"worker-kill", "pipe-drop"})

#: Kinds that are retryable in place (worker state intact).
TRANSIENT_KINDS = frozenset({"transient"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` on ``shard`` at pull depth ``at_pull``.

    ``at_pull`` matches against the worker's cumulative pull count: the
    fault fires on the first advance where ``worker.pulls >= at_pull``
    (so ``at_pull=0`` fires on the shard's very first advance), exactly
    once.
    """

    kind: str
    shard: int
    at_pull: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at_pull < 0:
            raise ValueError("FaultSpec.at_pull must be >= 0")
        if self.delay < 0:
            raise ValueError("FaultSpec.delay must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults across shards.

    Build one explicitly from specs, or derive a randomized-but-seeded
    schedule with :meth:`random` — the chaos harness's generator.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_shard(self, shard: int) -> tuple[FaultSpec, ...]:
        """The shard's schedule, ordered by firing depth (stable)."""
        return tuple(
            sorted(
                (f for f in self.faults if f.shard == shard),
                key=lambda f: f.at_pull,
            )
        )

    @classmethod
    def single(cls, kind: str, shard: int = 0, at_pull: int = 0,
               delay: float = 0.0) -> "FaultPlan":
        return cls((FaultSpec(kind, shard, at_pull, delay),))

    @classmethod
    def random(
        cls,
        seed: int,
        shards: int,
        *,
        kinds: tuple[str, ...] = FAULT_KINDS,
        count: int | None = None,
        max_pull: int = 64,
        delay: float = 0.002,
    ) -> "FaultPlan":
        """A seeded random schedule — identical for identical arguments.

        Guarantees at least one fault fires: shard 0 always gets one
        fault at ``at_pull=0`` (every live shard is advanced in the first
        round, so depth 0 always triggers).
        """
        rng = random.Random(seed)
        count = count if count is not None else max(2, shards)
        specs = [FaultSpec(rng.choice(kinds), 0, 0, delay)]
        for _ in range(count - 1):
            specs.append(
                FaultSpec(
                    rng.choice(kinds),
                    rng.randrange(shards),
                    rng.randrange(max_pull),
                    delay,
                )
            )
        return cls(tuple(specs))


#: The no-op default: injection hooks given this plan do nothing.
NO_FAULTS = FaultPlan()


class InjectingWorker:
    """A :class:`ShardWorker` wrapper firing scheduled faults in-process.

    Used by the serial backend (the process backend enforces schedules
    inside its children instead).  The wrapper shares its
    ``schedule`` list with the resilience supervisor, so faults it
    consumes are visibly consumed — a respawned replacement wrapper picks
    up exactly the remaining schedule.
    """

    def __init__(self, worker: ShardWorker, schedule: list[FaultSpec],
                 sleep=time.sleep) -> None:
        self.worker = worker
        self.schedule = schedule
        self._sleep = sleep

    @property
    def shard(self) -> int:
        return self.worker.shard

    @property
    def pulls(self) -> int:
        return self.worker.pulls

    @property
    def exhausted(self) -> bool:
        return self.worker.exhausted

    def advance(self, quantum: int):
        fault = _due_fault(self.schedule, self.worker.pulls)
        if fault is not None:
            if fault.kind in LOST_KINDS:
                raise WorkerLost(self.shard, f"injected {fault.kind}")
            if fault.kind == "transient":
                raise ShardError(
                    f"shard {self.shard}: injected transient fault",
                    shard=self.shard,
                )
            if fault.kind == "delay":
                self._sleep(fault.delay)
        return self.worker.advance(quantum)


class RequestChaos:
    """Seeded request-level chaos for the server loop.

    Installed on :class:`~repro.service.server.RankJoinServer` via its
    ``chaos`` parameter (default ``None`` — a strict no-op).  Each
    intercepted request may, with seeded probability, be answered with a
    retryable transient error or delayed briefly before normal handling.
    Responses carry ``"retryable": true`` so clients can distinguish
    injected turbulence from real errors.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        error_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.002,
        verbs: tuple[str, ...] = ("submit", "poll"),
        sleep=time.sleep,
    ) -> None:
        if not 0.0 <= error_rate <= 1.0 or not 0.0 <= delay_rate <= 1.0:
            raise ValueError("error_rate and delay_rate must be in [0, 1]")
        self._rng = random.Random(seed)
        self.error_rate = error_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self.verbs = tuple(verbs)
        self._sleep = sleep
        self.injected_errors = 0
        self.injected_delays = 0

    def intercept(self, request: dict) -> dict | None:
        """An injected error response, or None to handle the request normally."""
        if request.get("verb") not in self.verbs:
            return None
        draw = self._rng.random()
        if draw < self.error_rate:
            self.injected_errors += 1
            return wire.injected_fault()
        if draw < self.error_rate + self.delay_rate:
            self.injected_delays += 1
            self._sleep(self.delay)
        return None
