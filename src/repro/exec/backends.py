"""Execution backends: how shard advance rounds actually run.

A backend receives the full worker set once (:meth:`ExecBackend.start`)
and then serves advance rounds through a two-phase protocol:
``begin([(shard, quantum), ...])`` launches the round and
``collect(shard, quantum)`` retrieves one shard's
:class:`~repro.exec.worker.AdvanceOutcome`.  ``advance`` composes the two
for callers that do not need per-shard fault isolation.  Two
implementations, one per place a shard operator can live:

* :class:`SerialBackend` — the default: runs advances in-line, one after
  another, over workers held in this process.  Zero overhead, fully
  deterministic; sharding still pays because the cover shrink is
  algorithmic (see :mod:`repro.exec.engine`).
* :class:`ProcessBackend` — persistent ``multiprocessing`` children, one
  per shard, each running a small command loop over a pipe.  Workers are
  shipped once at start (fork inherits them cheaply); afterwards only
  ``(quantum)`` commands travel down and picklable outcomes travel back.

Both preserve the per-shard sequential contract: a shard's advances
never overlap, and no two shards ever run in one interpreter at the same
time, so neither worker state nor process-wide state needs locking.

Telemetry rides the same channel: a worker armed with
:class:`~repro.exec.telemetry.WorkerTelemetry` attaches its delta
capsule to each outcome (:attr:`~repro.exec.worker.AdvanceOutcome.
telemetry`), so child-process metrics, span aggregates, and trace
records cross the pipe inside the reply that was being sent anyway —
the relay adds zero round-trips and no backend-specific code.

Fault semantics (consumed by :mod:`repro.resilience`):

* ``collect`` raises :class:`~repro.errors.WorkerLost` when a shard's
  worker died mid-round (process child gone, pipe broken).  The worker
  must be reinstalled via :meth:`ExecBackend.replace_worker` before the
  shard can advance again.
* ``collect`` raises :class:`~repro.errors.ShardError` when a shard
  reports a *transient* failure: its operator state is intact and the
  same advance may simply be re-issued.
* The :class:`ProcessBackend` additionally accepts per-shard
  :class:`~repro.resilience.faults.FaultSpec` schedules via
  :attr:`ProcessBackend.fault_specs` (set before ``start`` /
  ``replace_worker``); children enforce them inside the command loop.
  The default is an empty schedule — a no-op.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from dataclasses import dataclass

from repro.errors import ShardError, WorkerLost
from repro.exec.worker import (
    BACKENDS,
    AdvanceOutcome,
    ShardWorker,
    check_backend,
)

#: Seconds to wait for a child process to exit before terminating it.
_JOIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class _RemoteFault:
    """Wire marker a child sends instead of an outcome: transient failure."""

    shard: int
    message: str


class ExecBackend:
    """Common interface: start once, advance repeatedly, close once."""

    name = "abstract"
    #: True when the backend enforces fault schedules itself (in-child)
    #: rather than expecting pre-wrapped injecting workers.
    ships_faults = False

    def start(self, workers: list[ShardWorker]) -> None:
        raise NotImplementedError

    def begin(self, requests: list[tuple[int, int]]) -> None:
        """Launch one advance round (or part of one) without waiting."""
        raise NotImplementedError

    def collect(self, shard: int, quantum: int) -> AdvanceOutcome:
        """Retrieve one shard's outcome for the current round.

        Raises :class:`~repro.errors.WorkerLost` /
        :class:`~repro.errors.ShardError` on shard-level faults.
        """
        raise NotImplementedError

    def advance(self, requests: list[tuple[int, int]]) -> list[AdvanceOutcome]:
        """Run one advance round; outcomes come back in request order."""
        self.begin(requests)
        return [self.collect(shard, quantum) for shard, quantum in requests]

    def replace_worker(self, shard: int, worker, faults: tuple = ()) -> None:
        """Install a fresh (already fast-forwarded) worker for ``shard``.

        The recovery hook: after :class:`~repro.errors.WorkerLost`, the
        resilience layer rebuilds the worker (partition re-feed + replay)
        and reinstalls it here.  ``faults`` is the remaining fault
        schedule for backends that ship faults to children.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release executor/process resources.  Idempotent."""


class SerialBackend(ExecBackend):
    """In-line advance loop — no concurrency, no overhead."""

    name = "serial"

    def __init__(self) -> None:
        self._workers: dict[int, ShardWorker] = {}

    def start(self, workers: list[ShardWorker]) -> None:
        self._workers = {worker.shard: worker for worker in workers}

    def begin(self, requests: list[tuple[int, int]]) -> None:
        """Nothing to launch — serial work happens at collect time."""

    def collect(self, shard: int, quantum: int) -> AdvanceOutcome:
        return self._workers[shard].advance(quantum)

    def replace_worker(self, shard: int, worker, faults: tuple = ()) -> None:
        self._workers[shard] = worker


def _due_fault(schedule: list, pulls: int):
    """Pop and return the first scheduled fault due at ``pulls``, if any.

    Schedules are consumed in order; each fault fires exactly once, on the
    first advance where the worker's cumulative pulls reached ``at_pull``.
    """
    if schedule and schedule[0].at_pull <= pulls:
        return schedule.pop(0)
    return None


def _child_loop(conn, worker: ShardWorker, faults=()) -> None:  # pragma: no cover - child
    """Command loop run inside a shard child process.

    Protocol: parent sends an int quantum → child replies with the
    AdvanceOutcome (or a :class:`_RemoteFault` marker for an injected
    transient failure); parent sends ``None`` (or closes the pipe) → child
    exits.  ``faults`` is the shard's remaining fault schedule, enforced
    before each advance so injected failures never leave the operator in
    a half-advanced state.
    """
    schedule = sorted(faults, key=lambda f: f.at_pull)
    try:
        while True:
            command = conn.recv()
            if command is None:
                break
            fault = _due_fault(schedule, worker.pulls)
            if fault is not None:
                if fault.kind == "worker-kill":
                    os._exit(17)
                elif fault.kind == "pipe-drop":
                    conn.close()
                    os._exit(18)
                elif fault.kind == "delay":
                    time.sleep(fault.delay)
                elif fault.kind == "transient":
                    conn.send(_RemoteFault(worker.shard, "injected transient fault"))
                    continue
            conn.send(worker.advance(command))
    except KeyboardInterrupt:
        # Ctrl-C on the process group must interrupt the child, not be
        # swallowed as if the parent had hung up.
        raise
    except (EOFError, OSError):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ProcessBackend(ExecBackend):
    """Persistent child process per shard, command loop over a pipe.

    Child lifetime is tied to the backend: :meth:`close` asks each child
    to exit and terminates stragglers; a ``weakref.finalize`` guard does
    the same if the backend is garbage-collected unclosed.  Dead children
    surface as :class:`~repro.errors.WorkerLost` from :meth:`collect`;
    :meth:`replace_worker` respawns the shard with a fresh worker (fork
    ships its already-fast-forwarded state).
    """

    name = "process"
    ships_faults = True

    def __init__(self) -> None:
        # Shared mutable registry so the GC finalizer always sees the
        # *current* children, including post-respawn replacements.
        self._state: dict[str, dict] = {"conns": {}, "children": {}}
        self._send_failed: set[int] = set()
        self._finalizer: weakref.finalize | None = None
        #: Shard → fault schedule shipped into that shard's child on
        #: (re)spawn.  Default empty: a plain no-op command loop.
        self.fault_specs: dict[int, tuple] = {}

    @property
    def _conns(self) -> dict[int, mp.connection.Connection]:
        return self._state["conns"]

    @property
    def _children(self) -> dict[int, mp.Process]:
        return self._state["children"]

    def _spawn(self, worker: ShardWorker, faults: tuple = ()) -> None:
        context = mp.get_context()
        parent_conn, child_conn = context.Pipe()
        child = context.Process(
            target=_child_loop,
            args=(child_conn, worker, faults),
            name=f"repro-shard-{worker.shard}",
            daemon=True,
        )
        child.start()
        child_conn.close()
        self._conns[worker.shard] = parent_conn
        self._children[worker.shard] = child

    def start(self, workers: list[ShardWorker]) -> None:
        for worker in workers:
            self._spawn(worker, self.fault_specs.get(worker.shard, ()))
        self._finalizer = weakref.finalize(self, _shutdown_children, self._state)

    def begin(self, requests: list[tuple[int, int]]) -> None:
        for shard, quantum in requests:
            try:
                self._conns[shard].send(quantum)
            except (BrokenPipeError, OSError):
                # Child already gone; surface it at collect time so the
                # failure reaches the caller in request order.
                self._send_failed.add(shard)

    def collect(self, shard: int, quantum: int) -> AdvanceOutcome:
        if shard in self._send_failed:
            self._send_failed.discard(shard)
            raise WorkerLost(shard, "worker process died before the round")
        try:
            reply = self._conns[shard].recv()
        except (EOFError, OSError):
            raise WorkerLost(shard) from None
        if isinstance(reply, _RemoteFault):
            raise ShardError(f"shard {shard}: {reply.message}", shard=shard)
        return reply

    def replace_worker(self, shard: int, worker, faults: tuple = ()) -> None:
        """Respawn ``shard``'s child around a fresh worker."""
        conn = self._conns.pop(shard, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        child = self._children.pop(shard, None)
        if child is not None:
            if child.is_alive():
                child.terminate()
            child.join(timeout=_JOIN_TIMEOUT)
        self._send_failed.discard(shard)
        self.fault_specs[shard] = tuple(faults)
        self._spawn(worker, tuple(faults))

    def close(self) -> None:
        if self._finalizer is not None and self._finalizer.alive:
            self._finalizer()  # runs _shutdown_children exactly once
        self._state["conns"] = {}
        self._state["children"] = {}


def _shutdown_children(state: dict) -> None:
    """Ask every child to exit; terminate any that ignore the request."""
    conns, children = state["conns"], state["children"]
    for conn in conns.values():
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    for child in children.values():
        child.join(timeout=_JOIN_TIMEOUT)
        if child.is_alive():  # pragma: no cover - defensive
            child.terminate()
            child.join(timeout=_JOIN_TIMEOUT)
    for conn in conns.values():
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass


_BACKENDS = {"serial": SerialBackend, "process": ProcessBackend}
assert tuple(_BACKENDS) == BACKENDS


def make_backend(name: str) -> ExecBackend:
    """Instantiate a backend by name (one of :data:`BACKENDS`)."""
    check_backend(name)
    return _BACKENDS[name]()
