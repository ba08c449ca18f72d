"""Asyncio JSON-lines server exposing the query service over a socket.

The protocol — verbs, fields, replies, the connection loop — is
:mod:`repro.service.wire` (prose: the "Wire protocol" section of
``docs/API.md``).  This file adds what a single server does with a
validated request: build the :class:`~repro.service.query.QuerySpec`,
call the :class:`~repro.service.service.QueryService`, push ``stream``
events as results are released.  A session that is terminal when
``submit`` admits it — a cache hit, born ``DONE`` — has nothing left to
wait for, so the submit reply carries its whole stream in ``events``:
the frames a ``stream`` from 0 would send, built by the same
:func:`stream_frames`, and a client needs no second round trip.

Distributed tracing: a ``submit`` request may carry a ``trace`` field
(the wire form of :class:`~repro.obs.TraceContext`, minted by
:class:`~repro.service.client.ServiceClient`); the server threads it
through the service so the query's session span parents back to that
client request.
Requests without one get a root minted by the service.  The submit
response echoes the session's trace id.

The server drives the service from a single background task — one
session step (a pull quantum, ended early by a release) at a time — so
any number of client connections share one cooperative executor and
results stay deterministic.  The driver yields to the event loop after a
step only when the loop has work from it or has waited long enough:

* **after a step the listener saw** — a release or a retire, so a parked
  stream may have frames to write (the listener sets a flag and has
  already queued those streams, so one loop turn serves them);
* **after** :data:`HOLD` **of steps without a yield**, about one FR*
  step on ``cold_fr2``.  This yield takes three turns: one reads the
  sockets, one runs the handlers those reads woke (queued behind the
  driver), one resumes the driver.

So a request, a cancel or a shutdown that arrives while steps run waits
for the stretch under way to end (at most :data:`HOLD` plus one step)
and, if it ended in a held yield, is answered before the next step; if
it ended in a release, up to two more stretches may run first.  A step
that releases nothing gives the loop nothing to do, and yielding after
each one cost a cold any-k query more than its operator; the wait costs
a second client's ``poll`` about 0.3–0.5 ms at the median
(EXPERIMENTS.md, "The driver yields when a step gives the loop work").

Nothing between the socket and the operator is discovered by a timer or
a scan:

* **The driver sleeps on an event.**  ``tick()`` returns False only when
  nothing is live or queued, so "no progress" *is* "idle" and no deadline
  can be pending; the driver then clears its wake event and waits on it,
  with no ``await`` between the idle tick and the clear.  Only a submit
  can end that state, so the submit that admits a live or queued session
  sets the event (as does :meth:`RankJoinServer.begin_shutdown`, which
  the parked driver has to notice); an idle server executes nothing.
* **Streams wake on release and on finish, per session.**  The service
  reports both to its one listener; the server keeps one edge-triggered
  event per *streamed* session, popped and set by that listener.  A
  step that releases nothing wakes nobody, a release wakes only its own
  session's streams, and every other way a session can end — ``cancel``
  from another connection, a deadline swept inside ``tick`` — goes
  through the service's retire step and so through the listener;
  shutdown sets every event.
* **A wake-up's frames are written one by one**, each followed by a
  drain.  Batching them into one write was measured and lost: on two
  vCPUs it serialises worker → front-end → client, which otherwise
  overlap (EXPERIMENTS.md, "Serving loop without timers").  Measured
  again once the fleet relayed stream lines as bytes, on ``warm_hit``
  ``ttk_p50_norm``: a finished session's lines in one worker write lost
  (0.0325 → 0.0362, 0 of 6 pairs won), and merging the lines already
  read into one front-end write gained nothing (0.0329 → 0.0325, 4 of 6).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import NamedTuple

from repro.core.scoring import SumScore, WeightedSum
from repro.errors import QuotaExceeded, ReproError
from repro.obs import TraceContext
from repro.relation.relation import KEY_ATTR, Relation
from repro.service import wire
from repro.service.query import QuerySpec
from repro.service.service import QueryService

#: Seconds the driver may run steps without yielding to the event loop
#: when no step released or retired anything.  A request that arrives
#: meanwhile waits at most this plus one step (module docstring).
HOLD = 0.0005

#: The evaluation core a ``submit`` with no ``algorithm`` field runs.
DEFAULT_ALGORITHM = "pbrj"


class Normalised(NamedTuple):
    """What of a ``submit`` request decides its answer, ``k`` aside — the
    query a server builds and a fleet's front-end keys its answers by.
    Hashable; equal numbers compare and hash equal, so weight ``1`` is
    ``1.0``."""

    names: tuple
    weights: tuple | None
    operator: str
    algorithm: str
    join_attrs: tuple


def normalised(request: dict, default_algorithm: str) -> Normalised:
    """The query ``request`` asks, ``default_algorithm`` applied when it
    names none.  Raises ``KeyError`` when it names no relations."""
    names = request.get("relations")
    weights = request.get("weights")
    return Normalised(
        tuple(names) if names is not None
        else (request["left"], request["right"]),
        weights if weights is None else tuple(map(tuple, weights)),
        request["operator"],
        request.get("algorithm") or default_algorithm,
        tuple(request.get("join_attrs") or ()),
    )


def query_spec(query: Normalised, k: int,
               relations: dict[str, Relation]) -> QuerySpec:
    """The spec of top-``k`` of ``query`` over the served ``relations``."""
    missing = [name for name in query.names if name not in relations]
    if missing:
        raise ValueError(
            f"unknown relations {missing}; registered: {sorted(relations)}"
        )
    if query.weights is not None:
        scoring = WeightedSum([float(w) for side in query.weights for w in side])
    else:
        scoring = SumScore()
    return QuerySpec(
        relations=tuple(relations[name] for name in query.names),
        k=k,
        scoring=scoring,
        operator=query.operator,
        algorithm=query.algorithm,
        join_attrs=query.join_attrs,
    )


def prepare_relations(relations: dict[str, Relation]) -> None:
    """Build the views every query of a served relation reads: the content
    fingerprint in every cache key, and the score matrix and tuple-key codes
    of every binary query.

    A server calls it when it is constructed, and a fleet before its workers
    fork, so each worker inherits them and no first query builds them.  A
    relation no query could read (a score outside ``[0, 1]``) is refused
    here, with :meth:`~repro.relation.relation.Relation.scored`'s
    ``InstanceError``.  Views that depend on which relations a query joins
    stay lazy.
    """
    for relation in relations.values():
        relation.fingerprint()
        relation.key_codes((KEY_ATTR,))  # builds scored() first


def stream_frames(session, cursor: int):
    """The ``stream`` frames of ``session`` from index ``cursor``: each
    result released so far, then ``done`` if the session is terminal.

    The prefix is read afresh for every frame, so a result released
    while the caller awaits between two frames is yielded too.
    """
    while cursor < min(len(session.results), session.k):
        yield wire.ok(
            event="result",
            session=session.session_id,
            index=cursor,
            score=round(session.results[cursor].score, 6),
            ts=session.released_at[cursor],
        )
        cursor += 1
    if session.done:
        yield wire.ok(event="done", **session.snapshot())


def submit_reply(session) -> dict:
    """The reply to the ``submit`` that admitted ``session``; one terminal
    on admission (a cache hit, born ``DONE``) carries its whole stream."""
    response = wire.ok(
        session=session.session_id,
        state=session.state.value,
        from_cache=session.from_cache,
    )
    if session.trace is not None:
        response["trace"] = session.trace.trace_id
    if session.done:  # its whole stream is known: it rides along
        response["events"] = list(stream_frames(session, 0))
    return response


class RankJoinServer(wire.LineServer):
    """Serves top-K rank join queries over named shared relations.

    Shutdown is graceful: SIGINT/SIGTERM (or :meth:`begin_shutdown`)
    switches the server into *draining* — new submits are rejected with a
    clean error while live sessions run to completion, then the loop
    stops and observability exporters are flushed.  A second signal skips
    the drain and stops immediately.

    The driver is the server: anything that escapes
    ``service.tick()`` ends :meth:`run` — open streams are told
    ``server stopped mid-stream``, the teardown runs, and the exception is
    re-raised to the caller — instead of leaving a socket that accepts
    queries nothing will ever advance.

    The driver ticks while the service has work and otherwise sleeps on
    an event set by the next admitting ``submit`` or by
    :meth:`begin_shutdown`; ``stream`` handlers sleep on their session's
    event, set by the service's listener (a release or a retire) and by
    shutdown (module docstring: the wake-up rules, and why result frames
    are not batched).  The service must not be ticked or submitted to
    from another thread while the server runs — a session admitted
    behind the server's back would not wake the driver.
    """

    def __init__(
        self,
        service: QueryService,
        relations: dict[str, Relation],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_algorithm: str = DEFAULT_ALGORITHM,
        chaos=None,
    ) -> None:
        prepare_relations(relations)
        super().__init__(host, port)
        self.service = service
        self.relations = dict(relations)
        #: Evaluation core applied when a request carries no
        #: ``algorithm`` field (``"pbrj"``, ``"anyk"``, or ``"auto"`` to
        #: let the cost-based planner choose — ``serve --algorithm auto``).
        self.default_algorithm = default_algorithm
        self.chaos = chaos
        #: What the idle driver sleeps on; exists whenever ``_loop`` does.
        self._wake: asyncio.Event | None = None
        #: Session id → the event its parked ``stream`` handlers wait on.
        #: Edge-triggered: a release or finish *pops* the event and sets
        #: it, and a handler registers a fresh one in the same no-``await``
        #: stretch as its scan, so no wake-up falls between the two.
        self._parked: dict[str, asyncio.Event] = {}
        #: Set by the listener: the loop has frames to write, so the
        #: driver yields after the current step.
        self._released = False
        service.listen(self._wake_streams)
        #: One future per ``stream`` request in flight, resolved when its
        #: handler has sent its last line — what shutdown waits on.
        self._streams: set[asyncio.Future] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Bind, serve until shutdown, and tear down (blocking)."""
        try:
            super().run()
        finally:
            # Flush (don't close) the obs pipeline so spans/metrics
            # buffered during the run reach their exporters even when the
            # process exits right after ``run()`` returns.
            self.service.obs.flush()

    async def _main(self) -> None:
        self._wake = asyncio.Event()
        await super()._main()

    async def _serve(self) -> None:
        driver = asyncio.create_task(self._drive())
        # A dead driver must not leave the socket accepting: however the
        # task ends, the server stops.
        driver.add_done_callback(lambda _: self._shutdown.set())
        try:
            await self._shutdown.wait()
            # Wake every open stream now; each sees the shutdown flag and
            # says so before the loop tears its connection down.
            while self._parked:
                self._parked.popitem()[1].set()
            if self._streams:
                await asyncio.wait(self._streams, timeout=1.0)
            if driver.done():
                driver.result()  # re-raise whatever killed the driver
        finally:
            driver.cancel()

    async def _drive(self) -> None:
        """Advance the service one step at a time, yielding to the event
        loop after a step the listener saw or once :data:`HOLD` is spent."""
        clock = time.perf_counter
        held_since = clock()
        while True:
            if self.service.tick():
                if self._released or clock() - held_since >= HOLD:
                    # One loop turn reads the sockets; a handler a read
                    # wakes runs in the turn after, queued behind this
                    # task.  So a held yield takes three turns, and a
                    # request that arrived during the stretch is answered
                    # before the next step; after a release one turn is
                    # enough, as the listener queued the streams it woke.
                    turns = 1 if self._released else 3
                    self._released = False
                    for _ in range(turns):
                        await asyncio.sleep(0)
                    held_since = clock()
            elif self.draining:
                self._shutdown.set()
                return
            else:
                # Idle.  No await between the tick above and this clear,
                # so a submit cannot slip in unseen.
                self._wake.clear()
                await self._wake.wait()
                held_since = clock()

    def _wake_streams(self, session) -> None:
        """Service listener: ``session`` released a result or retired."""
        self._released = True
        parked = self._parked.pop(session.session_id, None)
        if parked is not None:
            parked.set()

    def begin_shutdown(self) -> None:
        """Start draining: finish live sessions, reject new submits.

        Thread-safe — callable from signal handlers, other threads, or
        request handlers.  Idempotent; a second call while already
        draining forces an immediate stop.
        """
        loop = self._loop
        if loop is not None and not self.draining:
            self.draining = True  # the driver stops the loop once idle
            # Off-loop: asyncio primitives are not thread-safe.
            with contextlib.suppress(RuntimeError):  # the loop just closed
                loop.call_soon_threadsafe(self._wake.set)
        else:
            super().begin_shutdown()

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def _handle(self, verb: wire.Verb, request: dict, conn):
        handler = getattr(self, f"_verb_{verb.name}")
        try:
            if verb.streams:  # event mode: many lines out for one line in
                return await handler(request, conn)
            return handler(request)
        except ReproError as exc:
            return wire.error(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            return wire.bad_request(exc)

    def _verb_submit(self, request: dict) -> dict:
        if self.draining:
            return wire.draining("server")
        spec = self._parse_spec(request)
        trace = request.get("trace")
        try:
            session_id = self.service.submit(
                spec,
                deadline=request.get("deadline"),
                max_pulls=request.get("max_pulls"),
                tenant=request["tenant"],
                trace=None if trace is None else TraceContext.from_wire(trace),
            )
        except QuotaExceeded as exc:
            return wire.throttled(exc)
        session = self.service.session(session_id)
        if session.live:  # not a cache hit, born DONE: there is work
            self._wake.set()
        return submit_reply(session)

    def _verb_poll(self, request: dict) -> dict:
        snapshot = self.service.poll(request["session"])
        if snapshot is None:
            return wire.no_session(request["session"])
        return wire.ok(**snapshot)

    def _verb_cancel(self, request: dict) -> dict:
        return wire.ok(cancelled=self.service.cancel(request["session"]))

    async def _verb_stream(self, request: dict, conn: wire.Connection) -> dict:
        """Push each released result as its own event line.

        The handler races nothing: it scans the session's result prefix
        from a cursor (so reattaching clients replay instantly and never
        see duplicates), emits anything new, and parks on the session's
        event until the service reports a release or the finish.  There
        is no ``await`` from the last look at the prefix to the park, so a
        terminal session always gets its ``done`` line.
        """
        session_id, cursor = request["session"], request["from"]
        session = self.service.session(session_id)
        if session is None:
            return wire.no_session(session_id)
        finished = asyncio.get_running_loop().create_future()
        self._streams.add(finished)
        try:
            while True:
                # The prefix is re-read after every send: results released
                # during one are emitted here, not waited for below.
                for frame in stream_frames(session, cursor):
                    if frame["event"] == "done":
                        return frame
                    await conn.send(frame)
                    cursor += 1
                if self._shutdown.is_set():
                    # Sent here, not returned: the line must be out before
                    # ``finished`` lets the shutdown proceed.
                    await conn.send(wire.stopped_mid_stream())
                    return None
                parked = self._parked.get(session_id)
                if parked is None:
                    parked = self._parked[session_id] = asyncio.Event()
                await parked.wait()
        finally:
            self._streams.discard(finished)
            finished.set_result(None)

    def _verb_stats(self, request: dict) -> dict:
        payload = self.service.stats()
        payload["relations"] = {
            name: len(relation) for name, relation in self.relations.items()
        }
        payload["draining"] = self.draining
        payload["default_algorithm"] = self.default_algorithm
        return wire.ok(**payload)

    def _verb_metrics(self, request: dict) -> dict:
        return wire.ok(text=self.service.metrics_text())

    def _verb_shutdown(self, request: dict) -> dict:
        return wire.shutting_down()

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _parse_spec(self, request: dict) -> QuerySpec:
        return query_spec(normalised(request, self.default_algorithm),
                          request["k"], self.relations)
