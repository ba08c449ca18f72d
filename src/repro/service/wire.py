"""The JSON-lines wire protocol, written down once.

One JSON object per line in, one JSON object per line out (``stream``
answers with several).  Everything that defines the protocol lives here
and nowhere else; the prose copy is the "Wire protocol" section of
``docs/API.md``:

* the **frame codec** — :func:`encode` / :func:`decode`, and
  :func:`splice_session`, which namespaces a stream event's session id
  in its encoded bytes;
* the **verb table** — :data:`VERBS`: every verb with its fields, their
  types, ranges and defaults, and the two facts a front-end routes on
  (``session_addressed``, ``streams``); :func:`validate` checks a frame
  against it once, at the edge;
* the **reply vocabulary** — one constructor per ``ok: false`` shape, and
  :meth:`ServiceError.from_reply`, the client-side inverse;
* the **connection loop and lifecycle** — :class:`LineServer`, which
  :class:`~repro.service.server.RankJoinServer` and
  :class:`~repro.service.fleet.ServeFleet` subclass.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import QuotaExceeded
from repro.service.session import TERMINAL_STATES

#: Longest request line a server accepts, newline included (asyncio's
#: ``StreamReader`` default; a longer line is answered once and hung up on).
LINE_LIMIT = 2 ** 16

#: Wire names of the states a session never leaves.
TERMINAL = frozenset(state.value for state in TERMINAL_STATES)


# ----------------------------------------------------------------------
# Reply vocabulary
# ----------------------------------------------------------------------
def ok(**fields) -> dict:
    return {"ok": True, **fields}


def error(message: str, **flags) -> dict:
    return {"ok": False, "error": message, **flags}


def bad_request(detail) -> dict:
    return error(f"bad request: {detail}")


def unknown_verb(name) -> dict:
    return error(f"unknown verb {name!r}")


def no_session(session_id) -> dict:
    return error(f"no session {session_id!r}")


def line_too_long() -> dict:
    return error(f"request line exceeds {LINE_LIMIT} bytes")


def draining(who: str) -> dict:
    return error(
        f"{who} is draining (shutdown in progress); not accepting new queries",
        draining=True,
    )


def throttled(exc: QuotaExceeded) -> dict:
    """Backpressure, not failure: the reject carries the precise earliest
    time a resend can succeed."""
    return error(str(exc), throttled=True, retryable=True,
                 retry_after=exc.retry_after, tenant=exc.tenant)


def worker_lost(index: int, during: str = "") -> dict:
    return error(f"worker {index} lost{during}", retryable=True)


def no_live_worker() -> dict:
    return error("no live fleet worker", retryable=True)


def stopped_mid_stream() -> dict:
    return error("server stopped mid-stream", retryable=True)


def injected_fault() -> dict:
    return error("injected transient fault; safe to retry", retryable=True)


def shutting_down() -> dict:
    return ok(shutting_down=True)


class ServiceError(RuntimeError):
    """The server answered ``ok: false``.

    ``retryable`` is True when the server marked the failure transient
    (e.g. injected request chaos) — resending the same request is safe.
    ``retry_after`` carries the server's backpressure hint, when present
    (per-tenant quota rejections): resending sooner is guaranteed futile.
    """

    def __init__(
        self,
        message: str,
        *,
        retryable: bool = False,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after

    @classmethod
    def from_reply(cls, reply: dict) -> "ServiceError":
        return cls(
            reply.get("error", "unknown server error"),
            retryable=bool(reply.get("retryable", False)),
            retry_after=reply.get("retry_after"),
        )


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class BadFrame(ValueError):
    """A frame the protocol refuses; ``reply`` is the one line saying why."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply["error"])
        self.reply = reply


def encode(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode()


#: How a server's ``result`` and ``done`` stream events begin, up to the
#: first character of the session id: ``session`` is the first key after
#: ``ok`` and ``event`` in both frames.
RESULT_EVENT, DONE_EVENT = (
    encode(ok(event=name, session="")).removesuffix(b'"}\n')
    for name in ("result", "done")
)
_SESSION_KEY = b'"session": "'


def splice_session(line: bytes, namespace: str) -> bytes:
    """A ``result`` / ``done`` event line with ``namespace:`` put in front
    of its session id, without decoding it.

    ``line`` must start with :data:`RESULT_EVENT` or :data:`DONE_EVENT`, so
    the first ``"session": "`` is that top-level key; ``json.dumps`` escapes
    every ``"`` inside a string, so no string value can match it anyway.
    """
    return line.replace(_SESSION_KEY, _SESSION_KEY + namespace.encode() + b":", 1)


def decode(line: bytes) -> dict:
    """One line → one JSON object, or :class:`BadFrame`."""
    try:
        frame = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable bytes and
        # integers past the interpreter's digit limit.
        raise BadFrame(error(f"invalid JSON: {exc}")) from None
    if not isinstance(frame, dict):
        raise BadFrame(error("request must be a JSON object"))
    return frame


# ----------------------------------------------------------------------
# Verb table
# ----------------------------------------------------------------------
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_str(value) -> bool:
    return isinstance(value, str)


def _list_of(check) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(check, value))


@dataclass(frozen=True)
class Field:
    """One request field: ``accepts`` decides, ``expects`` says it in prose.

    An optional field may be omitted or ``null``; either way the handler
    sees ``default`` (``None`` meaning "the server's own default").
    """

    name: str
    expects: str
    accepts: Callable[[object], bool]
    required: bool = False
    default: object = None


@dataclass(frozen=True)
class Verb:
    name: str
    fields: tuple[Field, ...] = ()
    #: Carries a ``session`` id — a front-end routes it to the owner.
    session_addressed: bool = False
    #: Answers with event lines until a terminal one, not a single reply.
    streams: bool = False


_INT = ("an integer", _is_int)
_STR = ("a string", _is_str)
_STRS = ("a list of strings", _list_of(_is_str))
_SESSION = Field("session", *_STR, required=True)

VERBS: dict[str, Verb] = {verb.name: verb for verb in (
    Verb("submit", (
        Field("k", *_INT, required=True),
        Field("left", *_STR),
        Field("right", *_STR),
        Field("relations", *_STRS),
        Field("join_attrs", *_STRS),
        Field("operator", *_STR, default="FRPA"),
        Field("algorithm", *_STR),
        Field("weights", "a list of lists of finite numbers",
              _list_of(_list_of(_is_number))),
        # One value each — nothing is sharded, and nothing runs outside the
        # server's process.  The rows exist so clients that send the field
        # keep working and any other value is refused here, at the edge.
        Field("shards", "the integer 1", lambda v: _is_int(v) and v == 1),
        Field("backend", 'the string "serial"', lambda v: v == "serial"),
        Field("priority", *_INT, default=0),
        Field("max_pulls", *_INT),
        Field("deadline", "a finite non-negative number",
              lambda v: _is_number(v) and v >= 0),
        Field("tenant", *_STR, default="anonymous"),
        Field("trace", "an object", lambda v: isinstance(v, dict)),
        # Fleet front-end only (a pin for tests); a plain server ignores it.
        Field("worker", *_INT),
    )),
    Verb("poll", (_SESSION,), session_addressed=True),
    Verb("cancel", (_SESSION,), session_addressed=True),
    Verb("stream", (
        _SESSION,
        Field("from", "a non-negative integer",
              lambda v: _is_int(v) and v >= 0, default=0),
    ), session_addressed=True, streams=True),
    Verb("stats"),
    Verb("metrics"),
    Verb("shutdown"),
)}


def validate(frame: dict) -> tuple[Verb, dict]:
    """Check a decoded frame against the table → ``(verb, request)``.

    ``request`` is a copy of the frame with declared defaults filled in;
    fields the table does not declare pass through untouched.  Anything
    else raises :class:`BadFrame` naming the verb or the field.
    """
    name = frame.get("verb")
    verb = VERBS.get(name) if isinstance(name, str) else None
    if verb is None:
        raise BadFrame(unknown_verb(name))
    request = dict(frame)
    for field in verb.fields:
        value = request.get(field.name)
        if value is None:
            if field.required:
                raise BadFrame(bad_request(f"missing field {field.name!r}"))
            if field.default is not None:
                request[field.name] = field.default
        elif not field.accepts(value):
            raise BadFrame(bad_request(
                f"field {field.name!r} must be {field.expects}, "
                f"got {value!r:.40}"
            ))
    return verb, request


# ----------------------------------------------------------------------
# Connection loop and lifecycle
# ----------------------------------------------------------------------
class Connection:
    """One client socket.  ``peers`` holds streams a handler opened on
    this client's behalf (keyed by the handler); they close with it."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.peers: dict[object, tuple] = {}

    async def send(self, payload: dict) -> None:
        """Write one frame and drain — the drain is the per-connection
        backpressure: a slow stream consumer suspends only its own handler
        task, never the scheduler driver or other connections."""
        self.writer.write(encode(payload))
        await self.writer.drain()

    async def close(self) -> None:
        for writer in [w for _, w in self.peers.values()] + [self.writer]:
            writer.close()
            # CancelledError too: at loop teardown the cleanup await is
            # itself cancelled, and close() has already done the work.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()


class LineServer:
    """An asyncio JSON-lines server: bind, serve until shutdown, tear down.

    Subclasses implement :meth:`_handle` (one validated request → its
    last reply line) and may override :meth:`_serve` (work that lives as
    long as the socket), :meth:`_closed` (a client hung up), :meth:`_stop`
    and :meth:`begin_shutdown`.
    """

    #: Optional :class:`repro.resilience.RequestChaos` — intercepts
    #: requests before dispatch to inject retryable failures/delays.
    chaos = None

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port  # 0 → ephemeral; updated once bound
        self.ready = threading.Event()  # set once the socket is listening
        self.draining = False
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def run(self) -> None:
        """Bind, serve until shutdown, and tear down (blocking)."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        self._loop = loop = asyncio.get_running_loop()
        # Signal handlers are only possible from the main thread of the
        # main interpreter; servers embedded in worker threads (tests)
        # skip them and use begin_shutdown()/the shutdown verb instead.
        installed = []
        with contextlib.suppress(NotImplementedError, ValueError, RuntimeError):
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, self.begin_shutdown)
                installed.append(signum)
        server = await asyncio.start_server(
            self._connection, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = server.sockets[0].getsockname()[1]
        self.ready.set()
        try:
            await self._serve()
        finally:
            server.close()
            await server.wait_closed()
            for signum in installed:
                loop.remove_signal_handler(signum)
            self._loop = None

    async def _serve(self) -> None:
        await self._shutdown.wait()

    async def _stop(self) -> None:
        self._shutdown.set()

    def begin_shutdown(self) -> None:
        """Thread-safe shutdown trigger (signal handlers, other threads)."""
        loop = self._loop
        if loop is None:
            return
        self.draining = True
        # Off-loop: asyncio primitives are not thread-safe.
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self._stop())
            )

    async def _handle(self, verb: Verb, request: dict, conn: Connection):
        """Serve one validated request; return its last reply line (or
        ``None`` when everything was already sent on ``conn``)."""
        raise NotImplementedError

    def _closed(self, conn: Connection) -> None:
        """``conn``'s client hung up: forget what was kept on its behalf."""

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # no newline within LINE_LIMIT bytes
                    await conn.send(line_too_long())
                    break
                if not line:
                    break
                try:
                    verb, request = validate(decode(line))
                    reply = None
                    if self.chaos is not None:
                        reply = self.chaos.intercept(request)
                    if reply is None:
                        reply = await self._handle(verb, request, conn)
                except BadFrame as bad:
                    reply = bad.reply
                if reply is not None:
                    await conn.send(reply)
                    if reply.get("shutting_down"):
                        await self._stop()
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
            self._closed(conn)
            await conn.close()
