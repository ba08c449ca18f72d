"""Multi-process serve fleet: N server workers behind one front-end.

One :class:`~repro.service.server.RankJoinServer` is bounded by a single
scheduler thread; the fleet multiplies it.  ``python -m repro serve
--workers N`` boots N full server processes — each with its own event
loop, scheduler, and operators — plus a lightweight asyncio front-end
that all clients talk to.  The front-end is a second
:class:`~repro.service.wire.LineServer` over the same verb table, so
every existing client (:class:`~repro.service.client.ServiceClient`,
``repro top``, the smoke scripts) works unchanged; what this file adds is
routing and shared state:

* **Admission** is shared: per-tenant token-bucket quotas
  (:class:`~repro.service.quota.TenantQuotas`) are enforced once, at the
  front-end, so a tenant's budget spans the whole fleet rather than
  multiplying by N (a ``quotas`` entry in ``service_kwargs`` is refused).
* **Placement** is least-outstanding: a submit goes to the live worker
  with the fewest in-flight sessions (ties to the lowest index —
  deterministic).  Tests may pin a submit with a ``"worker": n`` field.
* **Session ids** are namespaced on the wire: worker 2's ``s7`` is
  ``w2:s7`` to clients in every line (a hit's ``events`` and ``stats``
  included), so a session-addressed verb routes straight back to the
  owning worker with no session table lookups.
* **Every forwarded line is relayed as bytes**, after one splice
  (:func:`~repro.service.wire.splice_session`) putting ``w2:`` in front of
  each session id in it: the encoder escapes every quote inside a string,
  so the splice can only land on a ``session`` key.  A reply is decoded
  only for what routing reads, a ``result`` line not at all, and none is
  encoded again.  A worker's line is read whole however long it is
  (:func:`~repro.service.wire.read_line`).
* **Outstanding counts are hints.**  A session counts against its worker
  from its submit until the front-end relays its end or the connection
  that submitted it closes — a client that hangs up never sees the end,
  so nothing else would.  The worker's own ``max_live`` bounds real load.
* **The result cache** spans processes through the disk-backed shared
  tier (:class:`~repro.service.cache.ResultCache` ``shared_dir``): a
  prefix computed by any worker answers the same fingerprint on every
  other worker, preserving the single-server cache semantics (prefix
  reuse included) fleet-wide.
* **The front-end answers repeats itself**, from the answers it has
  already relayed: a hit skips the worker hop.  Its answer table is the
  memory-only cache of a :class:`~repro.service.service.QueryService` of
  its own (the workers' ``cache_capacity`` / ``cache_ttl``), which never
  runs an operator; it holds scores only, as the wire carries nothing
  else.  The key is the request as a worker's server reads it
  (:func:`~repro.service.server.normalised`, one function for both):
  relation names, weights, operator, algorithm with the fleet's default
  applied, and ``join_attrs`` (an ``auto`` request is always forwarded:
  its label names the plan a worker's planner picks).  The table learns
  from the ``done`` frames it relays — a streamed one, decoded only after
  it is written, or the last event of a worker's hit reply — and keeps a
  ``DONE`` answer with no error, exhausted only when it is ``complete``
  with fewer than ``k`` scores.  An unpinned submit it covers is answered
  by a born-``DONE`` session with an ``fe:`` id, built as a worker builds
  a hit; ``poll``, ``stream`` and ``cancel`` address it there, and
  ``stats`` lists the front-end's service under ``fe`` beside the
  workers, merging its answers and its table's hits (a table miss is
  forwarded, and the worker's lookup counts it).  The key is not the
  spec fingerprint on purpose: it is finer, so every answer served here
  is one a worker would also serve, and it costs a cold submit a tuple
  and one dict probe, where hashing relation content and reading the
  shared tier on the critical path measured 4-10 % slower on
  ``cold_anyk`` (EXPERIMENTS.md, "The fleet's front-end answers
  repeats").

A worker that dies is marked dead; requests routed at it fail with a
*retryable* ``worker lost`` error so clients resubmit (landing on a live
worker).  Shutdown is graceful: the shutdown verb fans out to every
worker, the worker processes are joined, and only then does the
front-end stop.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing as mp
import shutil
import tempfile
import threading
from typing import NamedTuple

from repro.errors import QuotaExceeded
from repro.obs import Observability, TraceContext, publish_slos, render_prometheus
from repro.service import wire
from repro.service.quota import TenantQuotas
from repro.service.server import (
    DEFAULT_ALGORITHM,
    Normalised,
    RankJoinServer,
    normalised,
    prepare_relations,
    query_spec,
    stream_frames,
    submit_reply,
)
from repro.service.service import QueryService
from repro.service.session import QuerySession

#: The session-id namespace of the sessions the front-end answers itself.
FRONT_END = "fe"


class _Relayed(NamedTuple):
    """One result of an answer the front-end relayed: the wire carried
    its score and nothing else."""

    score: float


def _merge_slo(into: dict, worker_slo: dict) -> None:
    """Fold one worker's SLO block into the fleet aggregate.

    Latency quantiles (nested dicts) and gauges merge by max — the
    fleet-level objective is bounded by its worst worker; plain counts
    (``sessions_finished``, ``throttled_total``, ``queue_depth``) sum.
    """
    summed = ("sessions_finished", "throttled_total", "queue_depth",
              "live_sessions")
    for name, value in worker_slo.items():
        if isinstance(value, dict):
            bucket = into.setdefault(name, {})
            for key, sub in value.items():
                if isinstance(sub, (int, float)):
                    bucket[key] = max(bucket.get(key) or 0.0, sub)
                elif key not in bucket:
                    bucket[key] = sub
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if name in summed:
                into[name] = (into.get(name) or 0) + value
            else:
                into[name] = max(into.get(name) or 0.0, value)
        elif name not in into:
            into[name] = value


def _fleet_worker_main(
    index: int,
    conn,
    relations: dict,
    service_kwargs: dict,
    server_kwargs: dict,
    shared_cache_dir: str,
) -> None:
    """Entry point of one worker process: a full server on port 0.

    Announces the bound (ephemeral) port back over ``conn`` as soon as
    the socket listens, then serves until the shutdown verb arrives.
    """
    service = _worker_service(service_kwargs, shared_cache_dir)
    server = RankJoinServer(service, relations, port=0, **server_kwargs)

    def announce() -> None:
        server.ready.wait()
        try:
            conn.send(server.port)
        except (OSError, BrokenPipeError):  # pragma: no cover - parent died
            pass

    threading.Thread(target=announce, daemon=True).start()
    try:
        server.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass


def _worker_service(service_kwargs: dict, shared_cache_dir: str | None) -> QueryService:
    """The service one worker runs over the shared cache tier."""
    return QueryService(shared_cache_dir=shared_cache_dir, **service_kwargs)


class _Worker:
    """Front-end bookkeeping for one worker process."""

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.name = f"w{index}"  # the session-id namespace on the wire
        self.process = process
        self.conn = conn
        self.port: int | None = None
        self.outstanding = 0
        self.dead = False

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()


class ServeFleet(wire.LineServer):
    """N server workers behind one protocol-compatible front-end.

    Shares the :class:`~repro.service.server.RankJoinServer` lifecycle
    surface (``ready``, ``host``/``port``, blocking :meth:`run`,
    :meth:`begin_shutdown`) so the CLI and scripts drive either
    interchangeably.
    """

    def __init__(
        self,
        relations: dict,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: TenantQuotas | None = None,
        shared_cache_dir: str | None = None,
        service_kwargs: dict | None = None,
        server_kwargs: dict | None = None,
        obs: Observability | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.obs = obs if obs is not None else Observability()
        self.service_kwargs = dict(service_kwargs or {})
        if "quotas" in self.service_kwargs:
            # Admission is the front-end's, once for the fleet; a worker's
            # own quotas would never see a submit the front-end answers.
            raise ValueError("a fleet's quotas are its quotas= argument, "
                             "not a service_kwargs entry")
        # The front-end's own service, built with the settings every worker
        # will take, so a setting no worker could honour is refused here,
        # before any exists.  It runs no operator: its cache is the answer
        # table, its session table the sessions answered from it.
        self.answers = QueryService(obs=self.obs, **self.service_kwargs)
        # Build, once, the views each worker would build on its first
        # query: they fork with them.
        prepare_relations(relations)
        super().__init__(host, port)
        self.relations = dict(relations)
        self.num_workers = workers
        self.quotas = quotas
        self.server_kwargs = dict(server_kwargs or {})
        self.default_algorithm = self.server_kwargs.get(
            "default_algorithm", DEFAULT_ALGORITHM)
        if quotas is not None:
            quotas.observe(self.obs.metrics)
        #: Made by :meth:`run` when None was given, and removed there.
        self.shared_cache_dir = shared_cache_dir
        self._owns_cache_dir = shared_cache_dir is None
        self._answered_ids = itertools.count(1)
        self._workers: list[_Worker] = []
        #: Rotation counter for tie-breaking the least-outstanding router.
        self._rr_next = 0
        #: Namespaced session id → (owning worker, the client connection
        #: that submitted it, its answer-table key), while in flight.
        self._pending: dict[
            str, tuple[_Worker, wire.Connection, Normalised | None]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Spawn the workers, serve until shutdown, tear down (blocking)."""
        if self._owns_cache_dir:
            self.shared_cache_dir = tempfile.mkdtemp(prefix="repro-fleet-cache-")
        try:
            self._spawn_workers()
            super().run()
        finally:
            self.obs.flush()
            self._join_workers()
            if self._owns_cache_dir:
                shutil.rmtree(self.shared_cache_dir, ignore_errors=True)

    def _spawn_workers(self) -> None:
        context = mp.get_context()
        for index in range(self.num_workers):
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_fleet_worker_main,
                args=(
                    index,
                    child_conn,
                    self.relations,
                    dict(self.service_kwargs),
                    dict(self.server_kwargs),
                    self.shared_cache_dir,
                ),
                # Daemonic: a worker must never outlive its front-end.  The
                # normal stop is still graceful (``_stop`` sends each worker
                # the shutdown verb and ``_join_workers`` waits); this only
                # covers a front-end that dies without getting there.
                daemon=True,
                name=f"repro-fleet-w{index}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(index, process, parent_conn))
        for worker in self._workers:
            if worker.conn.poll(30.0):
                worker.port = worker.conn.recv()
            else:  # pragma: no cover - spawn failure
                worker.dead = True
        if not any(w.alive and w.port for w in self._workers):
            self._join_workers()
            raise RuntimeError("no fleet worker became ready")

    async def _stop(self) -> None:
        """Stop every worker through the shutdown verb, then the front-end."""
        self.draining = True
        for worker in self._workers:
            if not worker.alive:
                continue
            conn = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, worker.port), timeout=5.0
                )
                conn = wire.Connection(writer)
                await conn.send({"verb": "shutdown"})
                await asyncio.wait_for(reader.readline(), timeout=10.0)
            except (OSError, asyncio.TimeoutError):
                worker.dead = True
            finally:
                if conn is not None:
                    await conn.close()
        await super()._stop()

    def _join_workers(self) -> None:
        for worker in self._workers:
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick_worker(self, pinned: int | None) -> _Worker | None:
        if pinned is not None:
            if not 0 <= pinned < len(self._workers):
                raise wire.BadFrame(wire.bad_request(
                    f"field 'worker' must be in 0..{len(self._workers) - 1}, "
                    f"got {pinned}"
                ))
            worker = self._workers[pinned]
            return worker if worker.alive else None
        candidates = [w for w in self._workers if w.alive]
        if not candidates:
            return None
        # Least-outstanding, rotating among ties.  Cache-hit sessions are
        # born DONE and never count as outstanding, so a pure min-index
        # tie-break would pin ALL warm traffic onto worker 0; rotation
        # spreads it (the shared cache tier makes every worker equally
        # warm).
        best = min(w.outstanding for w in candidates)
        tied = [w for w in candidates if w.outstanding == best]
        self._rr_next += 1
        return tied[self._rr_next % len(tied)]

    def _route_session(self, wire_id: str) -> tuple[_Worker, str] | None:
        """Split a namespaced ``wN:sM`` id into (worker, local id)."""
        prefix, _, local = wire_id.partition(":")
        for worker in self._workers:
            if worker.name == prefix and local:
                return worker, local
        return None

    def _settle(self, wire_id: str | None) -> Normalised | None:
        """Stop counting a session as in flight; its answer-table key."""
        pending = self._pending.pop(wire_id, None)
        if pending is None:
            return None
        pending[0].outstanding -= 1
        return pending[2]

    def _closed(self, conn: wire.Connection) -> None:
        # Nobody will relay the end of what this client left unfinished.
        for wire_id, (_, owner, _) in list(self._pending.items()):
            if owner is conn:
                self._settle(wire_id)

    # ------------------------------------------------------------------
    # The answer table
    # ------------------------------------------------------------------
    def _answer_key(self, request: dict) -> Normalised | None:
        """A submit's answer-table key: the request as a worker's server
        reads it (:func:`~repro.service.server.normalised`), without
        ``k``.  None when the table may not hold its answer: no table, an
        ``auto`` plan (the worker's planner picks it), or a request a
        worker refuses."""
        if self.answers.cache is None or request["k"] < 1:
            return None
        try:
            key = normalised(request, self.default_algorithm)
        except KeyError:  # no relations named: the worker says so
            return None
        return None if key.algorithm == "auto" else key

    def _learn(self, key: Normalised, done: dict) -> None:
        """Keep the answer of a relayed ``done`` frame under ``key``.

        Only a ``DONE`` session with no error has one, and it is the whole
        join output only if ``complete`` with fewer than ``k`` scores (a
        budget or a deadline cuts a partial one short)."""
        if done["state"] != "DONE" or done["error"] is not None:
            return
        scores = done["scores"]
        self.answers.cache.store(
            key, list(map(_Relayed, scores)),
            exhausted=done["complete"] and len(scores) < done["k"])

    def _answer(self, request: dict, key: Normalised, answer: list) -> dict:
        """Answer a submit from the table: a session born ``DONE``, its
        reply built as a worker builds a hit's."""
        trace = request.get("trace")
        try:
            ctx = (TraceContext.root() if trace is None
                   else TraceContext.from_wire(trace))
        except (KeyError, TypeError, ValueError) as exc:
            return wire.bad_request(exc)  # as a worker refuses it
        spec = query_spec(key, request["k"], self.relations)
        session = QuerySession.answered(
            f"{FRONT_END}:s{next(self._answered_ids)}", spec.k, answer,
            label=spec.describe(), plan=spec.plan_summary(),
            tenant=request["tenant"], trace=ctx.child(),
        )
        self.answers.admit(session)
        return submit_reply(session)

    async def _answered_verb(self, verb: wire.Verb, request: dict,
                             conn: wire.Connection) -> dict | None:
        """``poll``, ``cancel`` or ``stream`` of a session the front-end
        answered: it is finished, so each answers at once."""
        session = self.answers.session(request["session"])
        if session is None:
            return wire.no_session(request["session"])
        if not verb.streams:  # by name, as every verb is dispatched
            return getattr(self, f"_answered_{verb.name}")(session)
        *results, done = stream_frames(session, request["from"])
        for frame in results:
            await conn.send(frame)
        return done

    def _answered_poll(self, session: QuerySession) -> dict:
        return wire.ok(**session.snapshot())

    def _answered_cancel(self, session: QuerySession) -> dict:
        return wire.ok(cancelled=False)  # born DONE: nothing to cancel

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def _handle(self, verb: wire.Verb, request: dict, conn):
        if not verb.session_addressed:
            return await getattr(self, f"_verb_{verb.name}")(request, conn)
        wire_id = request["session"]
        if wire_id.startswith(FRONT_END + ":"):
            return await self._answered_verb(verb, request, conn)
        routed = self._route_session(wire_id)
        if routed is None:
            return wire.no_session(wire_id)
        worker, local = routed
        if not worker.alive:
            return wire.worker_lost(worker.index)
        return await self._forward(
            verb, worker, dict(request, session=local), conn, wire_id
        )

    async def _verb_submit(self, request: dict, conn) -> dict | None:
        if self.draining:
            return wire.draining("fleet")
        if self.quotas is not None:
            try:
                self.quotas.admit(request["tenant"])
            except QuotaExceeded as exc:
                return wire.throttled(exc)
        pinned = request.pop("worker", None)
        key = self._answer_key(request)
        if pinned is None and key is not None:
            answer = self.answers.cache.lookup(key, request["k"])
            if answer is not None:
                return self._answer(request, key, answer)
        worker = self._pick_worker(pinned)
        if worker is None:
            return wire.no_live_worker()
        return await self._forward(
            wire.VERBS["submit"], worker, request, conn, None, key
        )

    async def _forward(
        self, verb: wire.Verb, worker: _Worker, request: dict,
        conn: wire.Connection, wire_id: str | None,
        key: Normalised | None = None,
    ) -> dict | None:
        """Send ``request`` to ``worker``; relay its reply, or a stream's
        lines up to the terminal one, to ``conn`` as the worker's bytes.

        ``wire_id`` is the session's fleet id, None for a submit (its reply
        names it), and ``key`` a submit's answer-table key.  Routing reads
        a reply before it is written; the table learns a ``done`` frame
        after.
        """
        try:
            reader = await self._upstream(worker, request, conn)
            while True:
                raw = await wire.read_line(reader)
                line = wire.splice_session(raw, worker.name)
                last = not raw.startswith(wire.RESULT_EVENT)
                # The table key of a done frame to learn, and the frame
                # if it is already decoded.
                learn_key = done = None
                if raw.startswith(wire.DONE_EVENT):
                    learn_key = self._settle(wire_id)
                elif last:
                    reply = wire.decode(line)
                    if wire_id is None and "session" in reply:  # admitted
                        self.obs.metrics.counter(
                            "fleet_routed_total", worker=str(worker.index)
                        ).inc()
                        # Born DONE (cache hit): never outstanding.
                        if reply.get("state") not in wire.TERMINAL:
                            worker.outstanding += 1
                            self._pending[reply["session"]] = (
                                worker, conn, key)
                        elif key is not None:  # a hit: its last event
                            learn_key, done = key, reply["events"][-1]
                    elif (reply.get("state") in wire.TERMINAL
                            or reply.get("cancelled") is True):
                        self._settle(wire_id)
                # One write and one drain per line, as a worker sends them:
                # merging lines lost (server.py).
                conn.writer.write(line)
                await conn.writer.drain()
                if learn_key is not None:
                    self._learn(learn_key, done or wire.decode(line))
                if last:
                    return None
        except (OSError, asyncio.TimeoutError, ValueError):
            # ValueError: EOF, or a reply that is not one JSON object.
            self._drop(worker, conn)
            during = (" mid-stream" if verb.streams
                      else " mid-submit" if wire_id is None else "")
            return wire.worker_lost(worker.index, during)

    async def _verb_stats(self, request: dict, conn) -> dict:
        return wire.ok(**await self._merged_stats(conn))

    async def _merged_stats(self, conn: wire.Connection) -> dict:
        """The fleet's ``stats``: a block per session namespace — each
        worker's, and the front-end's own service's under ``fe`` — and
        their merged scheduler, cache and SLO views."""
        quotas = self.quotas.stats() if self.quotas else None
        merged = {
            "fleet": {
                "workers": self.num_workers,
                "alive": sum(1 for w in self._workers if w.alive),
                "outstanding": {w.name: w.outstanding for w in self._workers},
                "quotas": quotas,
                "shared_cache_dir": self.shared_cache_dir,
            },
            "workers": {},
            "draining": self.draining,
            "relations": {
                name: len(rel) for name, rel in self.relations.items()
            },
        }
        scheduler = {"live": 0, "queued": 0, "pulls": 0, "finished": {}}
        cache = {"hits": 0, "misses": 0, "entries": 0,
                 "shared_hits": 0, "shared_stores": 0}
        slo: dict = {}
        sessions: list = []
        # The front-end's own service merges like a worker: its answers,
        # its table's hits, and (on the same registry) its throttles.
        front = merged["workers"][FRONT_END] = self.answers.stats()
        blocks = [front]
        for worker in self._workers:
            stats = None
            if worker.alive:
                stats = await self._exchange(worker, conn)
            if stats is None:
                merged["workers"][worker.name] = {"alive": False}
                continue
            merged["workers"][worker.name] = stats
            blocks.append(stats)
        for stats in blocks:
            wsched = stats.get("scheduler") or {}
            scheduler["live"] += wsched.get("live", 0)
            scheduler["queued"] += wsched.get("queued", 0)
            scheduler["pulls"] += wsched.get("pulls", 0)
            for state, count in (wsched.get("finished") or {}).items():
                scheduler["finished"][state] = (
                    scheduler["finished"].get(state, 0) + count
                )
            wcache = stats.get("cache") or {}
            for field in cache:
                if stats is front and field == "misses":
                    continue  # forwarded: the worker's lookup counts it
                cache[field] += wcache.get(field, 0) or 0
            _merge_slo(slo, stats.get("slo") or {})
            sessions.extend(stats.get("sessions") or [])
        total = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / total if total else 0.0
        # A ratio does not merge by max: the fleet's is its summed hits
        # over its summed lookups (None before any, as compute_slos has it).
        slo["cache_hit_ratio"] = cache["hits"] / total if total else None
        merged["scheduler"] = scheduler
        merged["cache"] = cache
        merged["slo"] = slo
        merged["sessions"] = sessions
        return merged

    async def _verb_metrics(self, request: dict, conn) -> dict:
        # The front-end's own registry: throttle counters, routing counts,
        # and its own service's answers and answer-table lookups, with the
        # slo_* gauges the fleet's, as the stats verb merges them.
        # Per-worker execution metrics are on each worker's own endpoint —
        # concatenating N registries would emit duplicate series.
        publish_slos(self.obs.metrics, (await self._merged_stats(conn))["slo"])
        return wire.ok(text=render_prometheus(self.obs.metrics))

    async def _verb_shutdown(self, request: dict, conn) -> dict:
        return wire.shutting_down()

    # ------------------------------------------------------------------
    # Upstream plumbing
    # ------------------------------------------------------------------
    async def _upstream(
        self, worker: _Worker, request: dict, conn: wire.Connection
    ) -> asyncio.StreamReader:
        """Send ``request`` to a worker; return the reader of its reply.

        The upstream is opened lazily, one per worker, and owned by the
        client connection: requests on one client socket are serial, so
        relays never interleave on an upstream.
        """
        pair = conn.peers.get(worker.index)
        if pair is None:
            pair = conn.peers[worker.index] = await asyncio.wait_for(
                asyncio.open_connection(self.host, worker.port), timeout=10.0
            )
        pair[1].write(wire.encode(request))
        await pair[1].drain()
        return pair[0]

    def _drop(self, worker: _Worker, conn: wire.Connection) -> None:
        """An upstream failed: forget it, and the worker too if it died."""
        if not worker.process.is_alive():
            worker.dead = True
        pair = conn.peers.pop(worker.index, None)
        if pair is not None:
            pair[1].close()

    async def _exchange(
        self, worker: _Worker, conn: wire.Connection
    ) -> dict | None:
        """A worker's ``stats``, its session ids spliced; None if it died."""
        try:
            reader = await self._upstream(worker, {"verb": "stats"}, conn)
            raw = await wire.read_line(reader)
            return wire.decode(wire.splice_session(raw, worker.name))
        except (OSError, asyncio.TimeoutError, ValueError):
            # ValueError: EOF, or a reply that is not one JSON object.
            self._drop(worker, conn)
            return None
