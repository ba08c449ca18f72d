"""Thin blocking client for the JSON-lines query service.

Speaks :mod:`repro.service.wire` (prose: the "Wire protocol" section of
``docs/API.md``) over one persistent TCP connection; what this file adds
is retry on server-marked transient failures and exactly-once stream
resume.  Safe to use from multiple threads only if each thread owns its
own client.  Typical use::

    with ServiceClient("127.0.0.1", 7411) as client:
        sid = client.submit(left="lineitem", right="orders", k=10)
        final = client.wait(sid, timeout=30.0)
        print(final["scores"])
"""

from __future__ import annotations

import socket
import time

from repro.obs import TraceContext
from repro.service import wire
from repro.service.wire import ServiceError  # also importable from here


class ServiceClient:
    """Blocking JSON-lines client for :class:`~repro.service.server.RankJoinServer`."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file = None
        #: Trace id of the most recent submit (for log correlation).
        self.last_trace: str | None = None
        #: ``(session id, events)`` of the latest submit whose reply
        #: carried its stream (a session terminal on admission, such as a
        #: cache hit) until :meth:`stream` replays it.
        self._inline: tuple[str, list[dict]] | None = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _send(self, payload: dict) -> None:
        self.connect()
        try:
            self._file.write(wire.encode(payload))
            self._file.flush()
        except OSError:
            self.close()
            raise

    def _receive(self) -> dict:
        """One reply line.  A failed read (timeout, reset, hang-up) leaves
        the buffered socket unusable — Python refuses further reads after
        a timeout — so the connection is dropped before the error
        propagates and the next request reconnects."""
        try:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
        except OSError:
            self.close()
            raise
        return wire.decode(line)

    def request(
        self, payload: dict, *, max_retries: int = 2, sleep=time.sleep
    ) -> dict:
        """Send one request object, return the decoded response.

        Server-marked *retryable* failures (injected chaos, transient
        overload) are resent up to ``max_retries`` times; a quota
        rejection's ``retry_after`` hint is honoured first (capped at 1s)
        so a throttled client backs off exactly as long as the server
        asked instead of hammering it.  Raises :class:`ServiceError` on a
        final ``ok: false`` answer and ``ConnectionError`` if the server
        hung up mid-exchange.
        """
        for attempt in range(max_retries + 1):
            self._send(payload)
            response = self._receive()
            if response.get("ok", False):
                return response
            error = ServiceError.from_reply(response)
            if not error.retryable or attempt >= max_retries:
                raise error
            if error.retry_after:
                sleep(min(float(error.retry_after), 1.0))

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def submit(self, **query) -> str:
        """Submit a query (see the server protocol); returns the session id.

        The client mints the request's :class:`~repro.obs.TraceContext`
        root here — the distributed trace starts at the caller, so every
        span the server-side execution produces parents back to this
        submission.  The trace id is kept on :attr:`last_trace` for
        correlation.  A reply that carries the session's stream (a cache
        hit) is kept too, for the next :meth:`stream` of that session.
        """
        ctx = TraceContext.root()
        response = self.request({"verb": "submit", "trace": ctx.to_wire(), **query})
        self.last_trace = response.get("trace", ctx.trace_id)
        events = response.get("events")
        self._inline = None if events is None else (response["session"], events)
        return response["session"]

    def poll(self, session_id: str) -> dict:
        return self.request({"verb": "poll", "session": session_id})

    def cancel(self, session_id: str) -> bool:
        return self.request({"verb": "cancel", "session": session_id})["cancelled"]

    def stats(self) -> dict:
        return self.request({"verb": "stats"})

    def metrics(self) -> str:
        """The server's metric registry in Prometheus text format."""
        return self.request({"verb": "metrics"})["text"]

    def shutdown(self) -> None:
        """Ask the server to stop serving (acknowledged before it stops)."""
        self.request({"verb": "shutdown"})

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def stream_raw(self, session_id: str, *, from_index: int = 0):
        """Yield stream events exactly as the server sends them (no retry).

        One ``stream`` request, then one yielded dict per event line —
        ``{"event": "result", "index": i, "score": s, "ts": t}`` per
        released result and a final ``{"event": "done", ...snapshot}``.
        An ``ok: false`` line raises :class:`ServiceError` (the connection
        is back in request mode at that point, so retrying is safe).  No
        client-side dedup or reordering happens here — the chaos harness
        uses this path to prove the *server* never emits a duplicate or
        out-of-order event.
        """
        self._send({"verb": "stream", "session": session_id, "from": from_index})
        while True:
            event = self._receive()
            if not event.get("ok", False):
                raise ServiceError.from_reply(event)
            yield event
            if event.get("event") == "done":
                return

    def stream(
        self,
        session_id: str,
        *,
        from_index: int = 0,
        max_retries: int = 8,
        sleep=time.sleep,
    ):
        """Resilient stream: ride retryable faults, resume from the cursor.

        Yields every ``result`` event exactly once, in release order, then
        the terminal ``done`` event.  On a server-marked retryable error
        (injected chaos, shutdown race) the stream is re-issued starting
        at the next unseen index; replayed results below the cursor are
        dropped, so consumers see a clean exactly-once sequence even
        while the request layer is faulting.

        The stream of the latest submitted session, when its submit reply
        carried it, is replayed from there without a request, once; a
        later ``stream`` of that session goes to the server.
        """
        if self._inline is not None and self._inline[0] == session_id:
            events, self._inline = self._inline[1], None
            for event in events:
                if event.get("event") != "result" or event["index"] >= from_index:
                    yield event
            return
        cursor = from_index
        attempt = 0
        while True:
            try:
                for event in self.stream_raw(session_id, from_index=cursor):
                    if event.get("event") == "result":
                        if event["index"] < cursor:
                            continue  # replay below the resume point
                        cursor = event["index"] + 1
                    yield event
                    if event.get("event") == "done":
                        return
                return
            except ServiceError as error:
                if not error.retryable or attempt >= max_retries:
                    raise
                attempt += 1
                if error.retry_after:
                    sleep(min(float(error.retry_after), 1.0))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def wait(self, session_id: str, *, timeout: float = 30.0) -> dict:
        """Block until the session reaches a terminal state.

        Rides :meth:`stream`: one request, zero polls — the server pushes
        the ``done`` snapshot the moment the session ends, so completion
        latency is wire latency, not a poll interval; a cache hit's
        submit reply already held it, so that takes zero requests.

        Returns the final snapshot; raises ``TimeoutError`` if the
        session is still live after ``timeout`` seconds (the check runs
        between pushed events, with the socket timeout as the hard bound
        on a silent server).
        """
        deadline = time.monotonic() + timeout
        for event in self.stream(session_id):
            if event.get("event") == "done":
                return {k: v for k, v in event.items() if k != "event"}
            if time.monotonic() > deadline:
                # The stream is still mid-flight on this connection;
                # drop it so the next request starts clean.
                self.close()
                raise TimeoutError(
                    f"session {session_id} still streaming after {timeout}s"
                )
        raise ConnectionError("stream ended without a done event")

    def run(self, *, timeout: float = 30.0, **query) -> dict:
        """Submit, wait, and return the final snapshot in one call."""
        return self.wait(self.submit(**query), timeout=timeout)
