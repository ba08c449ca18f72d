"""The query service: cache-aware admission and cooperative execution.

:class:`QueryService` owns every session it serves.  :meth:`~QueryService.
submit` fingerprints an incoming :class:`~repro.service.query.QuerySpec`
and consults the :class:`~repro.service.cache.ResultCache` (a hit → the
session is born ``DONE`` with zero pulls), otherwise builds a fresh
operator, and hands the session to :meth:`~QueryService.admit`.

Execution is cooperative: each :meth:`~QueryService.tick` advances the
next live session, in admission order round-robin, by one step — one pull
quantum, ended early by the session's first release.  So between two
steps of one session every other live session spends at most one quantum
(any-k: plus one tie batch).  Because every session owns its operator and
its sources, interleaving **cannot** change any query's answer or its
depths relative to serial execution — the schedule only changes *when*
work happens, never *what* work happens (asserted by the determinism
tests).  So there is one schedule and no per-session priority: every
operator is anytime, and another order would only move *when* an answer
arrives.  Admission control bounds memory: at most ``max_live`` sessions
hold live operator state; further submissions queue FIFO and are admitted
as live sessions finish or are cancelled.

Every session sits in one ``id → session`` table, so :meth:`~QueryService.
session` is a dict lookup whatever its state.  A session that ends is
*retired* by one method, in this order: it is counted in the cumulative
``service_sessions_total{state}`` counters (which is what ``stats()``
reports — a tally, not a scan); a ``DONE`` session's prefix is stored
in the cache; the listeners are told; and the session lets its operator
go — it keeps its answer, its release times and its final ``pulls`` /
``depths()``, frozen at that moment, so ``poll`` and a late ``stream``
read exactly what a client attached at the finish saw.
Only the newest :data:`FINISHED_RETENTION` retired sessions stay in the
table; an older id is unknown again (the wire's ``no_session`` reply).

The service is synchronous and single-threaded by design — the asyncio
server drives it from one task via :meth:`~QueryService.tick` — and fully
instrumented through :mod:`repro.obs`.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.obs import (
    Observability,
    TraceContext,
    render_prometheus,
    set_slo_gauges,
    span_record,
)
from repro.service.cache import ResultCache
from repro.service.query import QuerySpec
from repro.service.quota import TenantQuotas
from repro.service.session import (
    DEFAULT_QUANTUM,
    QuerySession,
    SessionState,
    check_budget,
)

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


class QueryService:
    """Runs many concurrent top-K queries over shared relations.

    Parameters
    ----------
    max_live:
        Admission-control bound on concurrently-executing sessions;
        excess submissions queue FIFO.
    quantum:
        Pulls per scheduling step for every session (an integer ≥ 1); a
        step ends early at the session's first release.
    cache_capacity / cache_ttl:
        Entries and optional TTL (seconds) of the service's own
        :class:`ResultCache`, which counts on this service's ``obs``;
        ``cache_capacity=0`` means no cache.
    shared_cache_dir:
        The cache's cross-process tier (a directory the serve fleet's
        workers share), or None for a memory-only cache.
    default_max_pulls:
        Pull budget applied to sessions that do not specify their own
        (``None`` or an integer ≥ 0).  A setting no session could honour
        is a ``ValueError`` here, not a refusal of every later submit.
    quotas:
        Optional :class:`~repro.service.quota.TenantQuotas` — when set,
        every submission spends a token from its tenant's bucket and an
        empty bucket raises :class:`~repro.errors.QuotaExceeded` with a
        ``retry_after`` hint (counted as
        ``service_throttled_total{tenant}`` on this service's registry).
    obs:
        Observability pipeline: queue-depth / live-session gauges, a pull
        counter, per-state session counters, latency histograms, spans.
    """

    def __init__(
        self,
        *,
        max_live: int = 8,
        quantum: int = DEFAULT_QUANTUM,
        cache_capacity: int = 128,
        cache_ttl: float | None = None,
        shared_cache_dir: str | None = None,
        default_max_pulls: int | None = None,
        quotas: TenantQuotas | None = None,
        obs: Observability | None = None,
    ) -> None:
        check_budget(quantum, default_max_pulls)
        if max_live < 1:
            raise ValueError("max_live must be at least 1")
        # The service defaults to an *enabled* in-memory pipeline (no
        # exporters) so queue/cache/pull counters are always live; pass an
        # exporter-equipped Observability to stream them, or
        # ``repro.obs.NULL_OBS`` to disable instrumentation entirely.
        self.obs = obs if obs is not None else Observability()
        self.cache = None
        if cache_capacity > 0:
            self.cache = ResultCache(
                capacity=cache_capacity, ttl=cache_ttl,
                shared_dir=shared_cache_dir, obs=self.obs,
            )
        self.max_live = max_live
        self.quantum = quantum
        self.default_max_pulls = default_max_pulls
        self.quotas = quotas
        if quotas is not None:
            quotas.observe(self.obs.metrics)
        self._ids = itertools.count(1)
        #: Every session the service can still answer for, by id: the
        #: live, the queued and the retained retired ones.
        self._sessions: dict[str, QuerySession] = {}
        self._live: list[QuerySession] = []
        self._cursor = 0  # index into _live of the next session to step
        self._queue: deque[QuerySession] = deque()
        self._finished: deque[QuerySession] = deque()  # retire order
        self._listeners = []
        metrics = self.obs.metrics
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
        # the gauges' last values (set on change; an idle service reads 0).
        self._deadlines, self._exported = 0, None
        self._export_gauges()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: QuerySpec,
        *,
        deadline: float | None = None,
        max_pulls: int | None = None,
        tenant: str = "anonymous",
        trace: TraceContext | None = None,
    ) -> str:
        """Admit a query; returns the session id immediately.

        The session may already be ``DONE`` on return (cache hit).

        ``tenant`` is the client id the session is billed to; with quotas
        configured an over-quota tenant is rejected here — before any
        operator work — with :class:`~repro.errors.QuotaExceeded`.

        ``trace`` is the request's root span context (minted by the
        client); without one an enabled pipeline mints a root here.  The
        session span parents back to it.
        """
        if self.quotas is not None:
            self.quotas.admit(tenant)
        session_id = f"s{next(self._ids)}"
        key = cached_answer = None
        if self.cache is not None:
            key = spec.fingerprint()  # names no plan: a hit plans nothing
            cached_answer = self.cache.lookup(key, spec.k)
        if cached_answer is None:  # a miss plans: its label names the plan run
            spec = spec.resolve(obs=self.obs)
        ctx = trace
        if ctx is None and self.obs.enabled:
            ctx = TraceContext.root()
        session_ctx = None
        if ctx is not None:
            self.obs.trace(span_record(
                ctx, "request", session=session_id, query=spec.describe()
            ))
            session_ctx = ctx.child()
        if max_pulls is None:
            max_pulls = self.default_max_pulls
        settings = dict(
            quantum=self.quantum,
            max_pulls=max_pulls,
            deadline=deadline,
            cache_key=key,
            label=spec.describe(),
            plan=spec.plan_summary(),
            tenant=tenant,
            trace=session_ctx,
        )
        if cached_answer is None:
            session = QuerySession(session_id, spec.build_operator(obs=self.obs),
                                   spec.k, **settings)
        else:
            session = QuerySession.answered(session_id, spec.k, cached_answer,
                                            **settings)
        return self.admit(session).session_id

    def admit(self, session: QuerySession) -> QuerySession:
        """Take a built session: live if a slot is free, else queued FIFO;
        one born terminal (a cache hit) is retired at once."""
        self._sessions[session.session_id] = session
        if session.deadline is not None:
            self._deadlines += 1
        if session.done:
            self._retire(session)
            return session
        if len(self._live) < self.max_live:
            self._live.append(session)
        else:
            self._queue.append(session)
        self._export_gauges()
        return session

    def listen(self, callback) -> None:
        """Register ``callback(session)``, called after a step in which the
        session released a result and once when it is retired."""
        self._listeners.append(callback)

    def cancel(self, session_id: str) -> bool:
        """Cancel a live or queued session, freeing its admission slot."""
        session = self._sessions.get(session_id)
        if session is None or not session.cancel():
            return False
        self._end(session)
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
            self._fill_slots()
        if self._cursor >= len(self._live):
            self._cursor = 0
        session = self._live[self._cursor]
        self._cursor += 1
        pulls_before = session.pulls
        released_before = len(session.results)
        session.step()
        self._m_pulls.inc(session.pulls - pulls_before)
        if len(session.results) > released_before:
            for callback in self._listeners:
                callback(session)
        if session.done:
            self._end(session)
        return True

    def run_until_complete(self) -> list[QuerySession]:
        """Drive ticks until every admitted session has ended."""
        while self.tick():
            pass
        return self.finished_sessions

    def drain(self, session_id: str) -> QuerySession | None:
        """Tick until the named session ends (other sessions share ticks)."""
        target = self._sessions.get(session_id)
        if target is None:
            return None
        while target.live and self.tick():
            pass
        return target

    def run_query(
        self,
        spec: QuerySpec,
        *,
        max_pulls: int | None = None,
        strict: bool = False,
    ) -> list:
        """Submit and drive to completion; returns the top-K results.

        Other live sessions share the ticks, so this is safe to call on a
        service with concurrent work in flight.
        """
        session = self.drain(self.submit(spec, max_pulls=max_pulls))
        return session.answer(strict=strict)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def session(self, session_id: str) -> QuerySession | None:
        """The session by id — live, queued, or one of the retained
        finished ones; None when the id is unknown or aged out."""
        return self._sessions.get(session_id)

    def poll(self, session_id: str) -> dict | None:
        session = self._sessions.get(session_id)
        return None if session is None else session.snapshot()

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
        payload = {
            "scheduler": {
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
            },
            "cache": self.cache.stats() if self.cache is not None else None,
            # The live-telemetry block: computed SLOs (freshly published
            # as slo_* gauges) and a brief line per in-flight session —
            # everything ``repro top`` renders.
            "slo": set_slo_gauges(self.obs.metrics),
            "quotas": self.quotas.stats() if self.quotas is not None else None,
        }
        payload["sessions"] = [
            {
                "session": session.session_id,
                "state": session.state.value,
                "label": session.label,
                "plan": session.plan,
                "results": len(session.results),
                "k": session.k,
                "pulls": session.pulls,
            }
            for session in (*self._live, *self._queue)
        ]
        return payload

    def metrics_text(self) -> str:
        """The whole registry in Prometheus text exposition format.

        SLO gauges are recomputed first, so a scrape always carries
        current percentiles alongside the raw counters/histograms.
        """
        set_slo_gauges(self.obs.metrics)
        return render_prometheus(self.obs.metrics)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sweep_deadlines(self) -> None:
        """Expire live and queued sessions whose deadline has passed.

        Run before each step, so an expiry is seen up to one step late.
        """
        for session in [*self._live, *self._queue]:
            if session.check_deadline():
                self._m_deadline_expired.inc()
                self._end(session)

    def _fill_slots(self) -> None:
        while self._queue and len(self._live) < self.max_live:
            self._live.append(self._queue.popleft())
        self._export_gauges()

    def _end(self, session: QuerySession) -> None:
        """Take an ended session off the live list or the queue; retire it."""
        if session not in self._live:
            self._queue.remove(session)
            self._retire(session)
            return
        index = self._live.index(session)
        del self._live[index]
        if index < self._cursor:
            # The rotation keeps its place: the next session to step is
            # still the one after the last stepped.
            self._cursor -= 1
        self._retire(session)
        self._fill_slots()

    def _retire(self, session: QuerySession) -> None:
        """End a session's service: count it, store it, tell the
        listeners, release its operator — in that order."""
        # 1. Count it (and keep it findable, up to FINISHED_RETENTION).
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
            self.obs.trace(span_record(
                session.trace, "session",
                seconds=session.latency,
                session=session.session_id,
                state=session.state.value,
                pulls=session.pulls,
                results=len(session.results),
                from_cache=session.from_cache,
            ))
        # 2. Store its prefix.  Only DONE sessions write:
        # a FAILED session may hold a prefix computed by an operator that
        # died mid-advance, and a CANCELLED one was abandoned before its
        # prefix was proven useful — caching either could poison later
        # queries with a partial entry.
        if (
            self.cache is not None
            and session.cache_key is not None
            and not session.from_cache
            and session.state is SessionState.DONE
        ):
            self.cache.store(
                session.cache_key,
                session.results,
                exhausted=session.exhausted,
            )
        # 3. Tell the listeners: the answer is final and already cached.
        for callback in self._listeners:
            callback(session)
        # 4. Let the operator go: the session keeps only its answer and its
        # final numbers.
        session.release_operator()
        self._export_gauges()

    def _export_gauges(self) -> None:
        exported = (len(self._queue), len(self._live))
        if exported != self._exported:
            self._exported = exported
            self._m_queue_depth.set(exported[0])
            self._m_live.set(exported[1])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every cached answer.  Live and queued sessions are not
        touched: they keep running under :meth:`tick`."""
        if self.cache is not None:
            self.cache.clear()
