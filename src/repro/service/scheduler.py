"""Cooperative scheduling of concurrent query sessions.

The :class:`Scheduler` multiplexes many :class:`~repro.service.session.
QuerySession` objects over one thread of control: each :meth:`tick`
advances the next live session, in admission order round-robin, by one
step — one pull quantum, ended early by the session's first release.  So
between two steps of one session every other live session spends at most
one quantum (any-k: plus one tie batch).  Because every session owns
its operator and its sources, interleaving **cannot** change any query's
answer or its depths relative to serial execution — the scheduler only
changes *when* work happens, never *what* work happens (asserted by the
determinism tests).  So there is one schedule and no per-session
priority: every operator is anytime, and another order would only move
*when* an answer arrives.

Admission control bounds memory: at most ``max_live`` sessions hold live
operator state; further submissions queue FIFO and are admitted as live
sessions finish or are cancelled.  Per-session pull budgets are enforced
inside the sessions themselves (graceful partial answers).

Every session the scheduler knows sits in one ``id → session`` table, so
:meth:`Scheduler.find` is a dict lookup whatever the session's state.  A
session that ends is *retired*: counted in the cumulative
``service_sessions_total{state}`` counters (which is what ``stats()``
reports — a tally, not a scan), shown to the ``on_finish`` callbacks
(the service's cache store among them) and then stripped of its
operator — it keeps its answer, its release times and its final
``pulls`` / ``depths()``, frozen at that moment, so ``poll`` and a late
``stream`` read exactly what a client attached at the finish saw.  Only
the newest :data:`FINISHED_RETENTION` retired sessions stay in the
table; an older id is unknown again (the wire's ``no_session`` reply).
"""

from __future__ import annotations

from collections import deque

from repro.obs import Observability, span_record
from repro.service.session import QuerySession, SessionState

#: Retired sessions kept findable, oldest dropped first.  A finished
#: session is only read again by a client that reconnects to resume its
#: stream or polls after the fact, both within moments of the finish;
#: 1 024 sessions is seconds of traffic even on an all-cache-hit mix and
#: about a megabyte of answers, and without a bound a worker grows by
#: every query it ever answered.  A constant, not a parameter: no caller
#: needs another value.
FINISHED_RETENTION = 1024

#: Histogram boundaries for session latency in seconds.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Scheduler:
    """Cooperative multiplexer with admission control.

    Parameters
    ----------
    max_live:
        Maximum sessions holding live operator state; excess submissions
        queue FIFO.
    obs:
        Optional observability pipeline: queue-depth / live-session
        gauges, a pull counter, per-state session counters, and a session
        latency histogram.
    """

    def __init__(
        self,
        *,
        max_live: int = 8,
        obs: Observability | None = None,
    ) -> None:
        if max_live < 1:
            raise ValueError("max_live must be at least 1")
        self.max_live = max_live
        #: Every session the scheduler can still answer for, by id: the
        #: live, the queued and the retained retired ones.
        self._sessions: dict[str, QuerySession] = {}
        self._live: list[QuerySession] = []
        self._cursor = 0  # index into _live of the next session to step
        self._queue: deque[QuerySession] = deque()
        self._finished: deque[QuerySession] = deque()  # retire order
        self._on_finish = []
        self._on_release = []
        # Default to an enabled exporter-less pipeline so the pull counter
        # backing stats() works even without a caller-supplied obs.
        self._obs = obs if obs is not None else Observability()
        metrics = self._obs.metrics
        self._m_queue_depth = metrics.gauge("service_queue_depth")
        self._m_live = metrics.gauge("service_live_sessions")
        self._m_pulls = metrics.counter("service_pulls_total")
        self._m_latency = metrics.histogram(
            "service_session_seconds", buckets=LATENCY_BUCKETS
        )
        # Time-to-first-result: the anytime metric incremental streaming
        # optimizes for (submit → first released result), alongside the
        # submit → DONE latency above.
        self._m_first_result = metrics.histogram(
            "service_first_result_seconds", buckets=LATENCY_BUCKETS
        )
        self._m_finished = {
            state: metrics.counter("service_sessions_total", state=state.value)
            for state in (SessionState.DONE, SessionState.CANCELLED, SessionState.FAILED)
        }
        self._m_deadline_expired = metrics.counter(
            "service_deadline_expirations_total"
        )
        # Sessions with a deadline (a tick sweeps only while one lives), and
        # the gauges' last values (set on change; an idle scheduler reads 0).
        self._deadlines, self._exported = 0, None
        self._export_gauges()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, session: QuerySession) -> QuerySession:
        """Admit a session (live if a slot is free, else queued FIFO)."""
        self._sessions[session.session_id] = session
        if session.deadline is not None:
            self._deadlines += 1
        if session.done:
            # Pre-answered (cache hit): bypass admission entirely.
            self._retire(session)
            return session
        if len(self._live) < self.max_live:
            self._live.append(session)
        else:
            self._queue.append(session)
        self._export_gauges()
        return session

    def on_finish(self, callback) -> None:
        """Register ``callback(session)`` to run when a session ends."""
        self._on_finish.append(callback)

    def on_release(self, callback) -> None:
        """Register ``callback(session)`` to run after a step in which
        the session released a new result."""
        self._on_release.append(callback)

    def cancel(self, session_id: str) -> bool:
        """Cancel a live or queued session, freeing its admission slot."""
        session = self._sessions.get(session_id)
        if session is None or not session.cancel():
            return False
        if session in self._live:
            self._reap(session)
        else:
            self._queue.remove(session)
            self._retire(session)
            self._export_gauges()
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Advance one session by one step; False when fully idle."""
        if not self._live and not self._queue:
            return False
        if self._deadlines:
            self._sweep_deadlines()
            if not self._live and not self._queue:
                return False
        if not self._live:
            self._admit()
        if self._cursor >= len(self._live):
            self._cursor = 0
        session = self._live[self._cursor]
        self._cursor += 1
        pulls_before = session.pulls
        released_before = len(session.results)
        session.step()
        self._m_pulls.inc(session.pulls - pulls_before)
        if len(session.results) > released_before:
            for callback in self._on_release:
                callback(session)
        if session.done:
            self._reap(session)
        return True

    def run_until_complete(self) -> list[QuerySession]:
        """Drive ticks until every admitted session has ended."""
        while self.tick():
            pass
        return self.finished_sessions

    def drain(self, session_id: str) -> QuerySession | None:
        """Tick until the named session ends (other sessions share ticks)."""
        target = self.find(session_id)
        if target is None:
            return None
        while target.live and self.tick():
            pass
        return target

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def find(self, session_id: str) -> QuerySession | None:
        return self._sessions.get(session_id)

    @property
    def live_sessions(self) -> list[QuerySession]:
        return list(self._live)

    @property
    def queued_sessions(self) -> list[QuerySession]:
        return list(self._queue)

    @property
    def finished_sessions(self) -> list[QuerySession]:
        """The retained retired sessions, oldest first."""
        return list(self._finished)

    def stats(self) -> dict:
        return {
            "max_live": self.max_live,
            "live": len(self._live),
            "queued": len(self._queue),
            # Cumulative since start, not what the table still holds.
            "finished": {
                state.value: counter.value
                for state, counter in self._m_finished.items()
                if counter.value
            },
            "pulls": self._m_pulls.value,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sweep_deadlines(self) -> None:
        """Expire live and queued sessions whose deadline has passed.

        Run before each step, so an expiry is seen up to one step late.
        """
        for session in list(self._live):
            if session.check_deadline():
                self._m_deadline_expired.inc()
                self._reap(session)
        for session in list(self._queue):
            if session.check_deadline():
                self._m_deadline_expired.inc()
                self._queue.remove(session)
                self._retire(session)
        self._export_gauges()

    def _admit(self) -> None:
        while self._queue and len(self._live) < self.max_live:
            self._live.append(self._queue.popleft())
        self._export_gauges()

    def _reap(self, session: QuerySession) -> None:
        index = self._live.index(session)
        del self._live[index]
        if index < self._cursor:
            # The rotation keeps its place: the next session to step is
            # still the one after the last stepped.
            self._cursor -= 1
        self._retire(session)
        self._admit()

    def _retire(self, session: QuerySession) -> None:
        if session.deadline is not None:
            self._deadlines -= 1
        self._finished.append(session)
        if len(self._finished) > FINISHED_RETENTION:
            self._sessions.pop(self._finished.popleft().session_id, None)
        self._m_finished.get(session.state, self._m_finished[SessionState.DONE]).inc()
        if session.latency is not None:
            self._m_latency.observe(session.latency)
        if session.time_to_first is not None:
            self._m_first_result.observe(session.time_to_first)
        if session.trace is not None:
            # The session span closes here: one timed record tying the
            # execution back to the request root.
            self._obs.trace(span_record(
                session.trace, "session",
                seconds=session.latency,
                session=session.session_id,
                state=session.state.value,
                pulls=session.pulls,
                results=len(session.results),
                from_cache=session.from_cache,
            ))
        for callback in self._on_finish:
            callback(session)
        # After the callbacks: the cache store above is what takes over
        # the operator; the session keeps only its final numbers.
        session.release_operator()
        self._export_gauges()

    def _export_gauges(self) -> None:
        exported = (len(self._queue), len(self._live))
        if exported != self._exported:
            self._exported = exported
            self._m_queue_depth.set(exported[0])
            self._m_live.set(exported[1])
