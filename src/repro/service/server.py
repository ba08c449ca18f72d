"""Asyncio JSON-lines server exposing the query service over a socket.

Wire protocol: one JSON object per line, one JSON object back per line.
Verbs (the ``verb`` field selects one):

``submit``
    ``{"verb": "submit", "left": "lineitem", "right": "orders", "k": 10,
    "operator": "FRPA", "weights": [[...], [...]], "max_pulls": 5000,
    "priority": 0, "deadline": 12.5}`` →
    ``{"ok": true, "session": "s7", "state": "PENDING"}``.
    ``left``/``right`` name relations registered with the server; an
    optional per-side ``weights`` list selects a weighted-sum scoring
    function instead of the plain sum.  ``shards`` (default: the
    server's ``default_shards``) selects sharded execution and
    ``backend`` its execution tier (``serial``/``process``; anything else
    is an ``{"ok": false}`` reply).
``poll``
    ``{"verb": "poll", "session": "s7"}`` → the session snapshot (state,
    scores so far, pulls, depths, cache provenance).
``cancel``
    ``{"verb": "cancel", "session": "s7"}`` → ``{"ok": true, "cancelled":
    true}``.
``stream``
    ``{"verb": "stream", "session": "s7", "from": 0}`` switches the
    connection into *event mode*: each result is pushed as its own line
    ``{"ok": true, "event": "result", "session": "s7", "index": 0,
    "score": 1.234567, "ts": ...}`` the moment the merge gate (or the
    serial operator) releases it — in exact final top-K order — and the
    terminal line ``{"ok": true, "event": "done", ...}`` carries the
    full session snapshot, after which the connection returns to
    request/response mode.  ``from`` (default 0) resumes an interrupted
    stream at a result index: already-released results replay instantly
    from the session prefix, so a client that lost its connection
    mid-stream reattaches without recomputation and without duplicates.
    Errors (unknown session, injected chaos, shutdown) are a single
    ``{"ok": false, ...}`` line, also returning the connection to
    request mode.
``stats``
    scheduler + cache + relation inventory, plus the live telemetry
    block: computed SLOs (``slo`` — p50/p95/p99 session latency, queue
    depth, cache hit ratio, shard imbalance), per-shard cumulative pull
    counters (``shards``), and one brief line per in-flight session
    (``sessions``).  This is the payload ``python -m repro top`` polls.
``metrics``
    ``{"verb": "metrics"}`` → ``{"ok": true, "text": "..."}`` where
    ``text`` is the full metric registry in Prometheus text exposition
    format (``# TYPE`` headers, cumulative ``_bucket{le=...}`` series,
    ``_sum``/``_count``); also served by ``python -m repro metrics``.
``shutdown``
    acknowledges, then stops the server loop (used for clean shutdown in
    tests and the CI smoke job).

Distributed tracing: a ``submit`` request may carry a ``trace`` field
(the wire form of :class:`~repro.obs.TraceContext`, minted by
:class:`~repro.service.client.ServiceClient`); the server threads it
through the service so every span of the query's execution — session,
exec, shards, worker quanta, retries, respawns — parents back to that
client request.  Requests without one get a server-minted root.  The
submit response echoes the trace id.

The server drives the scheduler from a single background task — one pull
quantum per loop iteration, yielding to the event loop between quanta — so
any number of client connections share one cooperative executor and
results stay deterministic.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading

from repro.core.scoring import SumScore, WeightedSum
from repro.errors import QuotaExceeded, ReproError
from repro.obs import TraceContext
from repro.relation.relation import Relation
from repro.service.query import QuerySpec
from repro.service.service import QueryService


class RankJoinServer:
    """Serves top-K rank join queries over named shared relations.

    ``default_shards`` applies sharded execution to every submitted
    binary query unless the request carries its own ``shards`` field.

    Shutdown is graceful: SIGINT/SIGTERM (or :meth:`begin_shutdown`)
    switches the server into *draining* — new submits are rejected with a
    clean error while live sessions run to completion, then the loop
    stops and observability exporters are flushed.  A second signal skips
    the drain and stops immediately.
    """

    def __init__(
        self,
        service: QueryService,
        relations: dict[str, Relation],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_shards: int | str = 1,
        default_algorithm: str = "pbrj",
        chaos=None,
        resilience=None,
    ) -> None:
        self.service = service
        self.relations = dict(relations)
        self.host = host
        self.port = port  # 0 → ephemeral; updated once bound
        self.default_shards = default_shards
        #: Evaluation core applied when a request carries no
        #: ``algorithm`` field (``"pbrj"``, ``"anyk"``, or ``"auto"`` to
        #: let the cost-based planner choose; ``default_shards`` may be
        #: ``"auto"`` likewise — both set by ``serve --plan auto``).
        self.default_algorithm = default_algorithm
        #: Optional :class:`repro.resilience.ResilienceConfig` applied to
        #: every sharded query this server builds (retry/respawn/degrade,
        #: plus fault injection when the config carries a plan).
        self.resilience = resilience
        #: Optional :class:`repro.resilience.RequestChaos` — intercepts
        #: requests before dispatch to inject retryable failures/delays.
        self.chaos = chaos
        self.ready = threading.Event()  # set once the socket is listening
        self.draining = False
        self._shutdown: asyncio.Event | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Edge-triggered progress signal: replaced (not cleared) after
        #: every productive scheduler tick, so stream handlers holding the
        #: *old* event can never miss a wakeup between their emit scan and
        #: their wait.
        self._progress: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Bind, serve until shutdown, and tear down (blocking)."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        self._progress = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._install_signal_handlers()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()
        driver = asyncio.create_task(self._drive())
        try:
            await self._shutdown.wait()
        finally:
            driver.cancel()
            self._server.close()
            await self._server.wait_closed()
            self._remove_signal_handlers()
            self._loop = None
            # Dispose retained operators (cached continuations, undrained
            # sessions) so shard workers never outlive the server.
            self.service.close()
            # Flush (don't close) the obs pipeline so spans/metrics
            # buffered during the run reach their exporters even when the
            # process exits right after ``run()`` returns.
            self.service.obs.flush()

    async def _drive(self) -> None:
        """Advance the scheduler one quantum at a time, cooperatively."""
        while True:
            progressed = self.service.tick()
            if progressed:
                # Wake every waiting stream, then arm a fresh event for
                # the next round (edge-triggered fan-out).
                self._progress.set()
                self._progress = asyncio.Event()
            if self.draining and not progressed and self._idle():
                self._shutdown.set()
                return
            # Yield to the event loop after every quantum; back off briefly
            # when idle so an idle server does not spin.
            await asyncio.sleep(0 if progressed else 0.005)

    def _idle(self) -> bool:
        scheduler = self.service.scheduler
        return not scheduler.live_sessions and not scheduler.queued_sessions

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def begin_shutdown(self) -> None:
        """Start draining: finish live sessions, reject new submits.

        Thread-safe — callable from signal handlers, other threads, or
        request handlers.  Idempotent; a second call while already
        draining forces an immediate stop.
        """
        loop = self._loop
        if loop is None or self._shutdown is None:
            return
        if not self.draining:
            self.draining = True
            return
        # Already draining → escalate to immediate stop (thread-safely;
        # asyncio.Event.set is not safe to call off-loop).
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(self._shutdown.set)

    def _install_signal_handlers(self) -> None:
        # Only possible from the main thread of the main interpreter;
        # servers embedded in worker threads (tests) simply skip this and
        # use begin_shutdown()/the shutdown verb instead.
        assert self._loop is not None
        self._signals_installed = False
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self.begin_shutdown)
            self._signals_installed = True
        except (NotImplementedError, ValueError, RuntimeError):
            pass

    def _remove_signal_handlers(self) -> None:
        if not getattr(self, "_signals_installed", False):
            return
        assert self._loop is not None
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(Exception):
                self._loop.remove_signal_handler(signum)
        self._signals_installed = False

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not reader.at_eof():
                line = await reader.readline()
                if not line:
                    break
                request, error = self._decode(line)
                if error is not None:
                    await self._send(writer, error)
                    continue
                if self.chaos is not None:
                    injected = self.chaos.intercept(request)
                    if injected is not None:
                        await self._send(writer, injected)
                        continue
                if request.get("verb") == "stream":
                    # Event mode: many lines out for one line in.
                    await self._verb_stream(request, writer)
                    continue
                response = self._dispatch_request(request)
                await self._send(writer, response)
                if response.get("shutting_down"):
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled a handler still waiting for its
            # next request (e.g. an idle keep-alive connection at
            # shutdown).  Absorb it so asyncio does not log a spurious
            # "exception in callback" for the cancelled reader.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            except asyncio.CancelledError:
                # The cleanup await itself can be cancelled at loop
                # teardown; close() above already did the real work.
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
        """Write one JSON line and drain — the drain is the per-connection
        backpressure: a slow stream consumer suspends only its own handler
        task, never the scheduler driver or other connections."""
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()

    @staticmethod
    def _decode(line: bytes) -> tuple[dict | None, dict | None]:
        """Parse one request line → ``(request, None)`` or ``(None, error)``."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return None, {"ok": False, "error": f"invalid JSON: {exc}"}
        if not isinstance(request, dict):
            return None, {"ok": False, "error": "request must be a JSON object"}
        return request, None

    def _dispatch_line(self, line: bytes) -> dict:
        """Decode + dispatch one request/response line (test convenience)."""
        request, error = self._decode(line)
        if error is not None:
            return error
        if self.chaos is not None:
            injected = self.chaos.intercept(request)
            if injected is not None:
                return injected
        return self._dispatch_request(request)

    def _dispatch_request(self, request: dict) -> dict:
        verb = request.get("verb")
        handler = {
            "submit": self._verb_submit,
            "poll": self._verb_poll,
            "cancel": self._verb_cancel,
            "stats": self._verb_stats,
            "metrics": self._verb_metrics,
            "shutdown": self._verb_shutdown,
        }.get(verb)
        if handler is None:
            return {"ok": False, "error": f"unknown verb {verb!r}"}
        try:
            return handler(request)
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _verb_submit(self, request: dict) -> dict:
        if self.draining:
            return {
                "ok": False,
                "error": "server is draining (shutdown in progress); "
                         "not accepting new queries",
                "draining": True,
            }
        spec = self._parse_spec(request)
        wire = request.get("trace")
        if wire is not None:
            ctx = TraceContext.from_wire(wire)
        elif self.service.obs.enabled:
            ctx = TraceContext.root()
        else:
            ctx = None
        try:
            session_id = self.service.submit(
                spec,
                priority=int(request.get("priority", 0)),
                deadline=request.get("deadline"),
                max_pulls=request.get("max_pulls"),
                tenant=str(request.get("tenant", "anonymous")),
                trace=ctx,
            )
        except QuotaExceeded as exc:
            # Backpressure, not failure: the reject carries the precise
            # earliest time a resend can succeed.
            return {
                "ok": False,
                "error": str(exc),
                "throttled": True,
                "retryable": True,
                "retry_after": exc.retry_after,
                "tenant": exc.tenant,
            }
        session = self.service.session(session_id)
        response = {
            "ok": True,
            "session": session_id,
            "state": session.state.value,
            "from_cache": session.from_cache,
        }
        if ctx is not None:
            response["trace"] = ctx.trace_id
        return response

    def _verb_poll(self, request: dict) -> dict:
        snapshot = self.service.poll(str(request["session"]))
        if snapshot is None:
            return {"ok": False, "error": f"no session {request['session']!r}"}
        return {"ok": True, **snapshot}

    def _verb_cancel(self, request: dict) -> dict:
        cancelled = self.service.cancel(str(request["session"]))
        return {"ok": True, "cancelled": cancelled}

    async def _verb_stream(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        """Push each released result as its own event line.

        The handler races nothing: it scans the session's result prefix
        from a cursor (so reattaching clients replay instantly and never
        see duplicates), emits anything new, and waits on the driver's
        edge-triggered progress event.  The short wait timeout guards the
        transitions that report no scheduler progress (deadline sweeps,
        cancellation) so a terminal session always gets its ``done`` line.
        """
        try:
            session_id = str(request["session"])
            cursor = max(0, int(request.get("from", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            await self._send(writer, {"ok": False, "error": f"bad request: {exc}"})
            return
        while True:
            session = self.service.session(session_id)
            if session is None:
                await self._send(
                    writer, {"ok": False, "error": f"no session {session_id!r}"}
                )
                return
            limit = min(len(session.results), session.k)
            while cursor < limit:
                result = session.results[cursor]
                await self._send(writer, {
                    "ok": True,
                    "event": "result",
                    "session": session_id,
                    "index": cursor,
                    "score": round(result.score, 6),
                    "ts": session.released_at[cursor],
                })
                cursor += 1
            if session.done:
                await self._send(
                    writer, {"ok": True, "event": "done", **session.snapshot()}
                )
                return
            if self._shutdown.is_set():
                await self._send(writer, {
                    "ok": False,
                    "error": "server stopped mid-stream",
                    "retryable": True,
                })
                return
            waiter = self._progress
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(waiter.wait(), timeout=0.05)

    def _verb_stats(self, request: dict) -> dict:
        payload = self.service.stats()
        payload["relations"] = {
            name: len(relation) for name, relation in self.relations.items()
        }
        payload["draining"] = self.draining
        payload["default_shards"] = self.default_shards
        payload["default_algorithm"] = self.default_algorithm
        return {"ok": True, **payload}

    def _verb_metrics(self, request: dict) -> dict:
        return {"ok": True, "text": self.service.metrics_text()}

    def _verb_shutdown(self, request: dict) -> dict:
        return {"ok": True, "shutting_down": True}

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _parse_spec(self, request: dict) -> QuerySpec:
        names = request.get("relations")
        if names is None:
            names = [request["left"], request["right"]]
        missing = [n for n in names if n not in self.relations]
        if missing:
            raise ValueError(
                f"unknown relations {missing}; registered: {sorted(self.relations)}"
            )
        relations = tuple(self.relations[n] for n in names)
        weights = request.get("weights")
        if weights is not None:
            flat = [float(w) for side in weights for w in side]
            scoring = WeightedSum(flat)
        else:
            scoring = SumScore()
        raw_shards = request.get("shards", self.default_shards)
        shards = "auto" if raw_shards == "auto" else int(raw_shards)
        kwargs = {}
        if len(relations) == 2 and (shards == "auto" or shards > 1):
            kwargs["shards"] = shards
            backend = request.get("backend")
            if backend is not None:
                kwargs["exec_backend"] = str(backend)
            if self.resilience is not None:
                kwargs["resilience"] = self.resilience
        return QuerySpec(
            relations=relations,
            k=int(request["k"]),
            scoring=scoring,
            operator=str(request.get("operator", "FRPA")),
            algorithm=str(request.get("algorithm", self.default_algorithm)),
            join_attrs=tuple(request.get("join_attrs", ())),
            **kwargs,
        )
