"""The query service facade: cache-aware session submission and driving.

:class:`QueryService` ties the service layer together: it fingerprints an
incoming :class:`~repro.service.query.QuerySpec`, consults the
:class:`~repro.service.cache.ResultCache` (full hit → the session is born
``DONE`` with zero pulls; partial hit → the suspended operator is checked
out and extended), otherwise builds a fresh operator, and admits the
session to the cooperative :class:`~repro.service.scheduler.Scheduler`.
Finished sessions feed their (possibly partial, still-resumable) prefix
back into the cache.

The facade is synchronous and single-threaded by design — the asyncio
server drives it from one task via :meth:`tick` — and fully instrumented
through :mod:`repro.obs`.
"""

from __future__ import annotations

import itertools

from repro.errors import QuotaExceeded
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
from repro.service.scheduler import Scheduler, SchedulingPolicy
from repro.service.session import DEFAULT_QUANTUM, QuerySession, SessionState


class QueryService:
    """Runs many concurrent top-K queries over shared relations.

    Parameters
    ----------
    policy:
        Scheduling policy name or instance (default round-robin).
    max_live:
        Admission-control bound on concurrently-executing sessions.
    quantum:
        Pulls per scheduling step for every session.
    cache:
        A :class:`ResultCache`, or None to build one from
        ``cache_capacity`` / ``cache_ttl`` (pass ``cache_capacity=0`` to
        disable caching entirely).
    default_max_pulls:
        Pull budget applied to sessions that do not specify their own.
    quotas:
        Optional :class:`~repro.service.quota.TenantQuotas` — when set,
        every submission spends a token from its tenant's bucket and an
        empty bucket raises :class:`~repro.errors.QuotaExceeded` with a
        ``retry_after`` hint (counted as
        ``service_throttled_total{tenant}``).
    """

    def __init__(
        self,
        *,
        policy: str | SchedulingPolicy = "round-robin",
        max_live: int = 8,
        quantum: int = DEFAULT_QUANTUM,
        cache: ResultCache | None = None,
        cache_capacity: int = 128,
        cache_ttl: float | None = None,
        default_max_pulls: int | None = None,
        quotas: TenantQuotas | None = None,
        obs: Observability | None = None,
    ) -> None:
        # The service defaults to an *enabled* in-memory pipeline (no
        # exporters) so queue/cache/pull counters are always live; pass an
        # exporter-equipped Observability to stream them, or
        # ``repro.obs.NULL_OBS`` to disable instrumentation entirely.
        self.obs = obs if obs is not None else Observability()
        self.scheduler = Scheduler(policy=policy, max_live=max_live, obs=self.obs)
        if cache is not None:
            self.cache = cache
        elif cache_capacity > 0:
            self.cache = ResultCache(
                capacity=cache_capacity, ttl=cache_ttl, obs=self.obs
            )
        else:
            self.cache = None
        self.quantum = quantum
        self.default_max_pulls = default_max_pulls
        self.quotas = quotas
        self._ids = itertools.count(1)
        #: Specs of the live and queued sessions (what :meth:`stats`
        #: describes); a session's entry goes when it finishes.
        self._specs: dict[str, QuerySpec] = {}
        self.scheduler.on_finish(self._session_finished)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: QuerySpec,
        *,
        priority: int = 0,
        deadline: float | None = None,
        max_pulls: int | None = None,
        quantum: int | None = None,
        tenant: str = "anonymous",
        trace: TraceContext | None = None,
    ) -> str:
        """Admit a query; returns the session id immediately.

        The session may already be ``DONE`` on return (cache hit).

        ``tenant`` is the client id the session is billed to; with quotas
        configured an over-quota tenant is rejected here — before any
        operator work — with :class:`~repro.errors.QuotaExceeded`.

        ``trace`` is the request's root span context (minted by the
        server/client, or here for in-process callers with an enabled
        pipeline); the session span parents back to it.
        """
        if self.quotas is not None:
            try:
                self.quotas.admit(tenant)
            except QuotaExceeded:
                self.obs.metrics.counter(
                    "service_throttled_total", tenant=tenant
                ).inc()
                raise
        session_id = f"s{next(self._ids)}"
        # Resolve any planner-delegated axes up front: the fingerprint,
        # cache entry, session label and telemetry all describe the
        # *effective* plan (and the planner's decision counter increments
        # through this service's metrics registry).
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
        key = spec.fingerprint() if self.cache is not None else None
        operator = None
        preloaded: list | None = None
        cached_answer: list | None = None
        entry_exhausted = False
        if self.cache is not None:
            cached_answer = self.cache.lookup(key, spec.k)
            if cached_answer is None:
                continuation = self.cache.take_continuation(key)
                if continuation is not None:
                    preloaded, operator = continuation
            else:
                # Distinguish a truly-complete short answer from a prefix.
                entry_exhausted = len(cached_answer) < spec.k
        if operator is None and cached_answer is None:
            operator = spec.build_operator(obs=self.obs)
        session = QuerySession(
            session_id,
            operator,
            spec.k,
            quantum=quantum if quantum is not None else self.quantum,
            max_pulls=max_pulls,
            priority=priority,
            deadline=deadline,
            preloaded=cached_answer if cached_answer is not None else preloaded,
            cache_key=key,
            label=spec.describe(),
            tenant=tenant,
            trace=session_ctx,
        )
        self._specs[session_id] = spec
        if cached_answer is not None:
            session.from_cache = True
            session.exhausted = entry_exhausted
            session._finish(SessionState.DONE)
        self.scheduler.submit(session)
        return session_id

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
        session_id = self.submit(spec, max_pulls=max_pulls)
        session = self.scheduler.drain(session_id)
        return session.answer(strict=strict)

    # ------------------------------------------------------------------
    # Driving and introspection
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Advance one session by one quantum; False when idle."""
        return self.scheduler.tick()

    def run_until_complete(self) -> list[QuerySession]:
        return self.scheduler.run_until_complete()

    def session(self, session_id: str) -> QuerySession | None:
        """The session by id — live, queued, or one of the scheduler's
        retained finished ones; None for an unknown or aged-out id."""
        return self.scheduler.find(session_id)

    def poll(self, session_id: str) -> dict | None:
        session = self.scheduler.find(session_id)
        return None if session is None else session.snapshot()

    def cancel(self, session_id: str) -> bool:
        return self.scheduler.cancel(session_id)

    def stats(self) -> dict:
        payload = {"scheduler": self.scheduler.stats()}
        payload["cache"] = self.cache.stats() if self.cache is not None else None
        # The live-telemetry block: computed SLOs (freshly published as
        # slo_* gauges) and a brief line per in-flight session —
        # everything ``repro top`` renders.
        payload["slo"] = set_slo_gauges(self.obs.metrics)
        payload["quotas"] = self.quotas.stats() if self.quotas is not None else None
        payload["sessions"] = [
            self._brief(session)
            for session in (
                self.scheduler.live_sessions + self.scheduler.queued_sessions
            )
        ]
        return payload

    def metrics_text(self) -> str:
        """The whole registry in Prometheus text exposition format.

        SLO gauges are recomputed first, so a scrape always carries
        current percentiles alongside the raw counters/histograms.
        """
        set_slo_gauges(self.obs.metrics)
        return render_prometheus(self.obs.metrics)

    def _brief(self, session: QuerySession) -> dict:
        spec = self._specs.get(session.session_id)
        return {
            "session": session.session_id,
            "state": session.state.value,
            "label": session.label,
            "plan": spec.plan_summary() if spec is not None else "?",
            "results": len(session.results),
            "k": session.k,
            "pulls": session.pulls,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _session_finished(self, session: QuerySession) -> None:
        """Forget the session's spec; feed its prefix (and continuation)
        back to the cache.

        Only ``DONE`` sessions write: a FAILED session may hold a prefix
        computed by an operator that died mid-advance, and a CANCELLED
        one was abandoned before its prefix was proven useful — caching
        either could poison later queries with a partial entry.
        """
        self._specs.pop(session.session_id, None)
        storable = (
            self.cache is not None
            and session.cache_key is not None
            and not session.from_cache
            and session.state is SessionState.DONE
        )
        if storable:
            self.cache.store(
                session.cache_key,
                session.results,
                exhausted=session.exhausted,
                operator=session.operator,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every cached answer and continuation.  No operator owns
        anything outside this process, so there is nothing else to do."""
        if self.cache is not None:
            self.cache.close()
