"""Shard workers: one resumable rank join operator per shard.

A :class:`ShardWorker` owns a shard-local operator (any entry of
:data:`repro.core.operators.OPERATORS` — PBRJ with corner/FR/FR*/aFR
bounds and RR/PA pulling) and advances it in bounded *pull quanta*.  Each
:meth:`ShardWorker.advance` call performs at most ``quantum`` pulls,
collects every result the operator emitted along the way, and returns an
:class:`AdvanceOutcome` — the snapshot the merge layer consumes.
Workers never talk to each other; all coordination happens through the
outcomes (the global threshold is ``max`` over shard frontiers, computed
by :class:`repro.exec.merge.GlobalTopKMerger`).  A worker is an object in
the engine's process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.operators import make_operator
from repro.core.stepping import PENDING
from repro.core.tuples import JoinResult
from repro.errors import InstanceError
from repro.relation.relation import RankJoinInstance

#: Where a shard's advance runs.  There is one place — in-line in the
#: engine's process — and the tuple is read by :class:`ExecConfig` alone.
#: It survives only because the frozen benchmark harness
#: (``benchmarks/harness/layers.py``) passes ``backend="serial"``; the next
#: harness-only PR removes the field and this with it.
BACKENDS = ("serial",)

#: Default per-round pull quantum.  Small enough that shards overshoot the
#: serial stopping depth by at most a few tuples (the sumDepths overhead),
#: large enough to amortize scheduling.
DEFAULT_QUANTUM = 32


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class ExecConfig:
    """Configuration of a sharded execution run.

    The point-set kernel is not part of it: its form is the process-wide
    threshold table's (:mod:`repro.kernels.dispatch`).

    Parameters
    ----------
    shards:
        Number of hash partitions (1 = one shard holding everything).
    backend:
        ``"serial"``, the only value (see :data:`BACKENDS`).
    quantum:
        Pulls granted to a shard per advance round.
    """

    shards: int = 1
    backend: str = "serial"
    quantum: int = DEFAULT_QUANTUM

    def __post_init__(self) -> None:
        if not _positive_int(self.shards):
            raise InstanceError(
                f"ExecConfig.shards must be an integer >= 1, got {self.shards!r}"
            )
        if not _positive_int(self.quantum):
            raise InstanceError(
                f"ExecConfig.quantum must be an integer >= 1, got {self.quantum!r}"
            )
        if self.backend not in BACKENDS:
            raise InstanceError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )


@dataclass(frozen=True)
class AdvanceOutcome:
    """Everything one advance round of one shard produced.

    ``frontier`` is the shard's upper bound on any result it can still
    emit (see :meth:`repro.core.pbrj.PBRJ.frontier`) — non-increasing,
    ``-inf`` once drained.  ``exhausted`` means the shard's operator
    returned ``None``: the shard is complete and will never be advanced
    again.
    """

    shard: int
    results: tuple[JoinResult, ...]
    pulls: int
    depth_left: int
    depth_right: int
    frontier: float
    exhausted: bool = field(default=False)


class ShardWorker:
    """One shard's operator plus the bounded-advance protocol around it."""

    def __init__(
        self,
        shard: int,
        instance: RankJoinInstance,
        operator: str = "FRPA",
        **operator_kwargs,
    ) -> None:
        self.shard = shard
        self._operator = make_operator(operator, instance, **operator_kwargs)
        self._exhausted = False

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def pulls(self) -> int:
        return self._operator.pulls

    def advance(self, quantum: int) -> AdvanceOutcome:
        """Spend at most ``quantum`` pulls; return everything emitted.

        Zero-pull emissions (results already provable from buffered
        state) are drained too — the loop only stops on PENDING, on
        exhaustion, or once the quantum is used up with nothing further
        provable.  Calling ``advance`` on an exhausted worker is a no-op
        returning an empty outcome.
        """
        operator = self._operator
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
        return AdvanceOutcome(
            shard=self.shard,
            results=tuple(results),
            pulls=operator.pulls - start_pulls,
            depth_left=operator.depth(0),
            depth_right=operator.depth(1),
            frontier=operator.frontier(),
            exhausted=self._exhausted,
        )
