"""The wire plane: one hostile-frame corpus, both server kinds.

Every frame in :func:`corpus` is sent over a real socket to a
``RankJoinServer`` and to a 2-worker ``ServeFleet`` (one fixture, two
params).  The contract per frame: exactly one reply line, ``ok`` false,
a non-empty one-line ``error``, and the same connection then answers
``stats``.  At teardown every scheduler driver must still finish a
query, the server stops through the ``shutdown`` verb, no child process
survives and no traceback was written — by this process or a worker.

Most of the corpus is generated from ``wire.VERBS``, so a verb or field
added later is fuzzed without touching this file.
"""

import ast
import contextlib
import inspect
import json
import logging
import multiprocessing
import os
import pathlib
import socket
import tempfile
import threading
import types

import pytest

from repro.errors import QuotaExceeded
from repro.relation import Relation
from repro.service import (
    QueryService,
    QuerySpec,
    RankJoinServer,
    ServeFleet,
    ServiceClient,
    ServiceError,
    wire,
)

from tests.service.test_server import RELATIONS

ROOT = pathlib.Path(__file__).resolve().parents[2]
QUERY = {"left": "lineitem", "right": "orders", "k": 3}
KINDS = ["server", "fleet"]


# ----------------------------------------------------------------------
# Booting either server kind
# ----------------------------------------------------------------------
@contextlib.contextmanager
def serving(kind):
    """A live server of ``kind``; checks the whole teardown contract."""
    with tempfile.TemporaryFile() as worker_stderr:
        if kind == "server":
            target = RankJoinServer(QueryService(quantum=16), RELATIONS, port=0)
        else:
            target = ServeFleet(RELATIONS, workers=2, port=0,
                                service_kwargs={"quantum": 16})
        # Forked workers keep the stderr they were born with: point fd 2
        # at a file for the fork only, so their tracebacks can be read.
        saved = os.dup(2)
        os.dup2(worker_stderr.fileno(), 2)
        try:
            thread = threading.Thread(target=target.run, daemon=True)
            thread.start()
            assert target.ready.wait(timeout=60.0), "never became ready"
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        try:
            yield target
            # Every scheduler driver is still alive: a query per worker.
            pins = [{"worker": 0}, {"worker": 1}] if kind == "fleet" else [{}]
            with ServiceClient(target.host, target.port, timeout=20.0) as client:
                for pin in pins:
                    final = client.run(timeout=20.0, **QUERY, **pin)
                    assert final["state"] == "DONE", final
        finally:
            if thread.is_alive():
                with contextlib.suppress(OSError, ServiceError):
                    with ServiceClient(target.host, target.port) as client:
                        client.shutdown()
            thread.join(timeout=60.0)
        assert not thread.is_alive(), "did not stop through the shutdown verb"
        assert multiprocessing.active_children() == []
        worker_stderr.seek(0)
        assert b"Traceback" not in worker_stderr.read()


@pytest.fixture(scope="module", params=KINDS)
def target(request):
    with serving(request.param) as live:
        yield live


@pytest.fixture
def quiet(capfd, caplog):
    """Fails the test if this process printed or logged a traceback
    (asyncio reports a crashed connection handler through ``logging``)."""
    yield
    assert "Traceback" not in capfd.readouterr().err
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class Raw:
    """A raw socket speaking bytes, not ``ServiceClient``."""

    def __init__(self, target):
        self.sock = socket.create_connection(
            (target.host, target.port), timeout=20.0
        )
        self.file = self.sock.makefile("rwb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()
        self.sock.close()

    def ask(self, frame: bytes) -> dict:
        self.file.write(frame)
        self.file.flush()
        return json.loads(self.file.readline())

    def still_usable(self) -> bool:
        return self.ask(b'{"verb": "stats"}\n')["ok"] is True


def line(payload) -> bytes:
    return json.dumps(payload).encode() + b"\n"


def sessions_ever(raw: Raw) -> int:
    scheduler = raw.ask(b'{"verb": "stats"}\n')["scheduler"]
    return (scheduler["live"] + scheduler["queued"]
            + sum(scheduler["finished"].values()))


def assert_refusal(reply: dict) -> None:
    assert reply["ok"] is False
    assert isinstance(reply["error"], str) and reply["error"].strip()
    assert "\n" not in reply["error"]


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
#: One or two values of every JSON type (and the float oddities JSON
#: parsers let through); a field is sent each one it does not accept.
SAMPLES = [True, False, 7, -1, 2.5, float("nan"), float("inf"), "x",
           [], [7], ["x", 7], [["x"]], {}, {"a": 7}]


def base_frame(verb: wire.Verb) -> dict:
    """A frame whose required fields all type-check."""
    frame = {"verb": verb.name}
    if verb.name == "submit":
        frame.update(QUERY)
    for field in verb.fields:
        if field.required and field.name not in frame:
            frame[field.name] = next(v for v in SAMPLES if field.accepts(v))
    return frame


def table_frames():
    """Per declared field: every way of getting it wrong, as one batch."""
    for verb in wire.VERBS.values():
        base = base_frame(verb)
        for field in verb.fields:
            wrong = [v for v in SAMPLES if not field.accepts(v)]
            frames = [line({**base, field.name: value}) for value in wrong]
            if field.required:
                frames.append(line({**base, field.name: None}))
                frames.append(line(
                    {k: v for k, v in base.items() if k != field.name}
                ))
            yield f"{verb.name}-{field.name}", frames, repr(field.name)


def hand_frames():
    yield "empty-line", b"\n", "invalid JSON"
    yield "blank-line", b"   \n", "invalid JSON"
    yield "truncated-json", b'{"verb": "sub\n', "invalid JSON"
    yield "not-utf8", b"\xff\xfe\xfd\n", "invalid JSON"
    yield "bare-word", b"this is not json\n", "invalid JSON"
    yield "deep-nesting", b"[" * 30000 + b"\n", "invalid JSON"
    yield ("digit-bomb", b'{"verb": "stats", "x": ' + b"9" * 5000 + b"}\n",
           "invalid JSON")
    for text in ("[]", "3", '"x"', "null", "true"):
        yield f"non-object-{text}", text.encode() + b"\n", "JSON object"
    yield "missing-verb", line({}), "unknown verb"
    yield "missing-verb-with-fields", line(QUERY), "unknown verb"
    for verb in (None, 3, ["submit"], {"submit": 1}, "frobnicate", "SUBMIT", ""):
        yield f"verb-{json.dumps(verb)}", line({"verb": verb}), "unknown verb"
    submit = {"verb": "submit", **QUERY}
    for name in ("left", "right"):
        yield (f"submit-without-{name}",
               line({k: v for k, v in submit.items() if k != name}),
               "bad request")
    yield "submit-unknown-relation", line({**submit, "left": "nope"}), "nope"
    yield "submit-no-relations", line({**submit, "relations": []}), ""
    yield "submit-k-zero", line({**submit, "k": 0}), ""
    yield "submit-k-negative", line({**submit, "k": -5}), ""
    yield "submit-unknown-operator", line({**submit, "operator": "nope"}), "nope"
    yield "submit-unknown-algorithm", line({**submit, "algorithm": "nope"}), "nope"
    for backend in ("process", "thread"):  # retired; the table's own refusal
        yield (f"submit-retired-backend-{backend}",
               line({**submit, "backend": backend}),
               f"bad request: field 'backend' must be the string \"serial\", "
               f"got {backend!r}")
    yield "submit-ragged-weights", line({**submit, "weights": [[1.0]]}), ""
    yield ("submit-negative-weights",
           line({**submit, "weights": [[-1.0, 1.0], [1.0, 1.0]]}), "")
    yield "submit-empty-trace", line({**submit, "trace": {}}), "bad request"
    for session in ("s999", "w9:s1", "w:", "wx:s1", ":s1", "w0:", "w-1:s1",
                    "w0:s999", "w1:", "", "w" + "9" * 5000 + ":s1"):
        for verb in ("poll", "stream"):
            yield (f"{verb}-session-{session[:12]!r}",
                   line({"verb": verb, "session": session}), "no session")
    yield ("stream-from-huge",
           line({"verb": "stream", "session": "s999", "from": 10 ** 30}),
           "no session")
    yield ("stream-from-negative",
           line({"verb": "stream", "session": "s999", "from": -1}), "'from'")


def corpus():
    """``(id, frames, expected)``: each frame alone must be refused with
    ``expected`` in the error text."""
    yield from table_frames()
    for name, frame, expected in hand_frames():
        yield name, [frame], expected


OVERLONG = b'{"verb": "stats", "pad": "' + b"x" * wire.LINE_LIMIT + b'"}\n'


class TestHostileFrames:
    @pytest.mark.parametrize(
        "frames, expected", [pytest.param(f, e, id=i) for i, f, e in corpus()]
    )
    def test_one_refusal_and_the_connection_survives(
        self, target, quiet, frames, expected
    ):
        with Raw(target) as raw:
            for frame in frames:
                reply = raw.ask(frame)
                assert_refusal(reply)
                assert expected in reply["error"], frame
                assert raw.still_usable()

    def test_overlong_line_is_one_refusal_and_a_clean_close(self, target, quiet):
        with Raw(target) as raw:
            reply = raw.ask(OVERLONG)
            assert_refusal(reply)
            assert f"exceeds {wire.LINE_LIMIT} bytes" in reply["error"]
            assert raw.file.readline() == b""  # hung up, nothing more
        with Raw(target) as raw:
            assert raw.still_usable()

    def test_a_line_just_under_the_limit_is_served(self, target, quiet):
        pad = wire.LINE_LIMIT - len(b'{"verb": "stats", "pad": ""}\n') - 64
        with Raw(target) as raw:
            assert raw.ask(line({"verb": "stats", "pad": "x" * pad}))["ok"]

    @pytest.mark.parametrize("field, value", [
        ("deadline", "soon"), ("max_pulls", "many"), ("priority", True),
        ("k", "3"), ("shards", 0), ("shards", "auto"), ("deadline", -1.0),
        ("shards", 2),
    ])
    def test_wrong_typed_submit_never_creates_a_session(
        self, target, quiet, field, value
    ):
        # At the parent the first two were answered ``ok: true`` and the
        # TypeError then killed the scheduler driver for good.
        pins = [{"worker": 0}] if isinstance(target, ServeFleet) else [{}]
        with Raw(target) as raw:
            before = sessions_ever(raw)
            reply = raw.ask(line({"verb": "submit", **QUERY, **pins[0],
                                  field: value}))
            assert_refusal(reply)
            assert reply["error"].startswith("bad request:")
            assert repr(field) in reply["error"]
            assert sessions_ever(raw) == before
        with ServiceClient(target.host, target.port, timeout=20.0) as client:
            final = client.run(timeout=20.0, **QUERY, **pins[0])
        assert final["state"] == "DONE"

    def test_shards_one_is_still_served(self, target, quiet):
        # Nothing is sharded (any other value is a row above), but an old
        # client that sends the field's one value keeps working.
        pins = [{"worker": 0}] if isinstance(target, ServeFleet) else [{}]
        with ServiceClient(target.host, target.port, timeout=20.0) as client:
            final = client.run(timeout=20.0, shards=1, **QUERY, **pins[0])
        assert final["state"] == "DONE"


class TestFleetWorkerPin:
    @pytest.mark.parametrize("pin", [99, "x", -1, 2, 1.0, True])
    def test_bad_pin_is_a_bad_request_naming_the_range(self, target, quiet, pin):
        if not isinstance(target, ServeFleet):
            pytest.skip("the worker pin is a front-end field")
        with Raw(target) as raw:
            reply = raw.ask(line({"verb": "submit", **QUERY, "worker": pin}))
            assert_refusal(reply)
            assert reply["error"].startswith("bad request: field 'worker'")
            if isinstance(pin, int) and not isinstance(pin, bool):
                assert "0..1" in reply["error"]
            assert raw.still_usable()
            good = raw.ask(line({"verb": "submit", **QUERY, "worker": 1}))
            assert good["ok"] and good["session"].startswith("w1:")


# ----------------------------------------------------------------------
# The client survives a timed-out exchange
# ----------------------------------------------------------------------
class TestClientAfterTimeout:
    @pytest.mark.parametrize("call", [
        lambda client: client.request({"verb": "stats"}),
        lambda client: list(client.stream_raw("s1"))[-1],
    ], ids=["request", "stream_raw"])
    def test_next_exchange_reconnects(self, call):
        """A server that withholds one reply, then answers the next
        connection normally.  At the parent the second call raised
        ``OSError("cannot read from timed out object")``."""
        reply = wire.ok(event="done")
        listener = socket.create_server(("127.0.0.1", 0))
        held = []

        def serve():
            first, _ = listener.accept()
            held.append(first)  # read nothing, say nothing, stay open
            second, _ = listener.accept()
            with second, second.makefile("rwb") as stream:
                stream.readline()
                stream.write(wire.encode(reply))
                stream.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = ServiceClient(*listener.getsockname(), timeout=0.2)
        try:
            with pytest.raises(TimeoutError):
                call(client)
            assert call(client) == reply
        finally:
            client.close()
            thread.join(timeout=10.0)
            for sock in [*held, listener]:
                sock.close()
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# The codec, the vocabulary, the table
# ----------------------------------------------------------------------
#: One call of every reply constructor, with the exact line it builds.
REPLIES = {
    "ok": (wire.ok(session="s1"), {"ok": True, "session": "s1"}),
    "shutting_down": (wire.shutting_down(),
                      {"ok": True, "shutting_down": True}),
    "error": (wire.error("boom"), {"ok": False, "error": "boom"}),
    "bad_request": (wire.bad_request("'left'"),
                    {"ok": False, "error": "bad request: 'left'"}),
    "unknown_verb": (wire.unknown_verb("frobnicate"),
                     {"ok": False, "error": "unknown verb 'frobnicate'"}),
    "no_session": (wire.no_session("s999"),
                   {"ok": False, "error": "no session 's999'"}),
    "line_too_long": (wire.line_too_long(),
                      {"ok": False,
                       "error": "request line exceeds 65536 bytes"}),
    "draining": (wire.draining("fleet"), {
        "ok": False,
        "error": "fleet is draining (shutdown in progress); "
                 "not accepting new queries",
        "draining": True,
    }),
    "throttled": (wire.throttled(QuotaExceeded("alice", 1.5)), {
        "ok": False,
        "error": "tenant 'alice' is over its admission quota; "
                 "retry after 1.500s",
        "throttled": True, "retryable": True, "retry_after": 1.5,
        "tenant": "alice",
    }),
    "worker_lost": (wire.worker_lost(1, " mid-stream"), {
        "ok": False, "error": "worker 1 lost mid-stream", "retryable": True,
    }),
    "no_live_worker": (wire.no_live_worker(), {
        "ok": False, "error": "no live fleet worker", "retryable": True,
    }),
    "stopped_mid_stream": (wire.stopped_mid_stream(), {
        "ok": False, "error": "server stopped mid-stream", "retryable": True,
    }),
    "injected_fault": (wire.injected_fault(), {
        "ok": False, "error": "injected transient fault; safe to retry",
        "retryable": True,
    }),
}

#: Every key a reply constructor can set besides ``ok``/``error``.
REPLY_FLAGS = {
    flag for name, (reply, _) in REPLIES.items() if name != "ok"
    for flag in reply if flag not in ("ok", "error")
}


class TestVocabularyAndCodec:
    def test_every_constructor_is_listed(self):
        constructors = {
            name for name, fn in inspect.getmembers(wire, inspect.isfunction)
            if fn.__module__ == wire.__name__ and not name.startswith("_")
            and fn.__annotations__.get("return") == "dict"
        } - {"decode"}
        assert constructors == set(REPLIES)

    @pytest.mark.parametrize("name", sorted(REPLIES))
    def test_texts_flags_and_round_trip(self, name):
        built, expected = REPLIES[name]
        assert built == expected
        assert list(built) == list(expected)  # key order is wire order
        frame = wire.encode(built)
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        assert wire.decode(frame) == built

    def test_service_error_is_the_inverse_of_the_error_replies(self):
        error = ServiceError.from_reply(REPLIES["throttled"][0])
        assert "quota" in str(error)
        assert error.retryable and error.retry_after == 1.5
        plain = ServiceError.from_reply(REPLIES["no_session"][0])
        assert not plain.retryable and plain.retry_after is None
        assert str(ServiceError.from_reply({"ok": False})) == \
            "unknown server error"

    def test_decode_refuses_with_a_ready_reply(self):
        for frame in (b"", b"\n", b"nope\n", b"[1]\n", b"\xff\n"):
            with pytest.raises(wire.BadFrame) as refusal:
                wire.decode(frame)
            assert_refusal(refusal.value.reply)

    def test_validate_fills_declared_defaults_only(self):
        verb, request = wire.validate({"verb": "submit", **QUERY, "extra": 1,
                                       "priority": None})
        assert verb is wire.VERBS["submit"]
        assert request == {"verb": "submit", **QUERY, "extra": 1,
                           "priority": 0, "operator": "FRPA",
                           "tenant": "anonymous"}
        _, stream = wire.validate({"verb": "stream", "session": "s1"})
        assert stream["from"] == 0


#: Relation names a ``done`` line's ``label`` carries verbatim.
AWKWARD_NAMES = ('quo"te \\ back "session": "s9"', 'new\nline, ⋈ ü 名前')


def stream_frames():
    """``(id, frame)``: every line a server writes in answer to ``stream``."""
    left, right = (Relation(name, relation.tuples) for name, relation
                   in zip(AWKWARD_NAMES, RELATIONS.values()))
    service = QueryService(quantum=16)
    sid = service.submit(QuerySpec(relations=(left, right), k=3))
    while service.tick():
        pass
    session = service.session(sid)
    assert all(name in session.label for name in AWKWARD_NAMES)
    yield "result", wire.ok(event="result", session=sid, index=0,
                            score=round(session.results[0].score, 6),
                            ts=session.released_at[0])
    yield "done", wire.ok(event="done", **session.snapshot())
    yield "no_session", wire.no_session("s7")
    yield "stopped_mid_stream", wire.stopped_mid_stream()
    yield "injected_fault", wire.injected_fault()
    yield "bad_request", wire.bad_request("field 'from' must be ...")
    yield "error", wire.error('operator "x" failed')


class TestStreamSplice:
    """What the front-end relays as bytes reads, decoded, exactly as the
    decode → rewrite → encode it replaces."""

    @pytest.mark.parametrize(
        "frame", [pytest.param(f, id=name) for name, f in stream_frames()]
    )
    def test_splice_equals_rewrite(self, frame):
        raw = wire.encode(frame)
        spliced = raw.startswith((wire.RESULT_EVENT, wire.DONE_EVENT))
        assert spliced == (frame["ok"] is True)
        if spliced:
            worker = types.SimpleNamespace(name="w1")
            assert wire.decode(wire.splice_session(raw, "w1")) == \
                ServeFleet._rewrite(wire.decode(raw), worker)


def service_sources():
    for package in ("service", "resilience"):
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            if path.name != "wire.py":
                yield path


class TestTheProtocolIsWrittenOnce:
    def test_verb_table(self):
        assert list(wire.VERBS) == [
            "submit", "poll", "cancel", "stream", "stats", "metrics", "shutdown",
        ]
        assert {v.name for v in wire.VERBS.values() if v.session_addressed} \
            == {"poll", "cancel", "stream"}
        assert [v.name for v in wire.VERBS.values() if v.streams] == ["stream"]

    def test_both_servers_dispatch_off_the_table(self):
        for verb in wire.VERBS.values():
            assert callable(getattr(RankJoinServer, f"_verb_{verb.name}"))
            if not verb.session_addressed:  # the front-end relays those
                assert callable(getattr(ServeFleet, f"_verb_{verb.name}"))

    @pytest.mark.parametrize("path", list(service_sources()),
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_no_second_copy(self, path):
        """No JSON codec, no hand-typed refusal, no verb dispatch table
        outside ``wire.py``."""
        verbs = set(wire.VERBS)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                module = getattr(node, "module", None)
                assert "json" not in names and module != "json", path
            elif isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
                for key, value in zip(node.keys, node.values):
                    refusal = (isinstance(key, ast.Constant) and key.value == "ok"
                               and isinstance(value, ast.Constant)
                               and value.value is False)
                    assert not refusal, f"{path}:{node.lineno}"
                assert len(verbs.intersection(keys)) < 2, f"{path}:{node.lineno}"
            elif isinstance(node, ast.Compare):
                # `verb == "submit"` / `verb in ("poll", "cancel")`
                for operand in [node.left, *node.comparators]:
                    for leaf in ast.walk(operand):
                        named = isinstance(leaf, ast.Constant) and leaf.value in verbs
                        assert not named, f"{path}:{node.lineno}"

    def test_lifecycle_has_one_definition(self):
        for path in service_sources():
            text = path.read_text()
            for once in ("signal_handler", "start_server", "asyncio.run("):
                assert once not in text, f"{path.name} re-types {once}"


class TestTheProseCopy:
    def section(self) -> str:
        text = (ROOT / "docs" / "API.md").read_text()
        start = text.index("### Wire protocol")
        return text[start:text.index("\n## ", start)]

    def test_names_every_verb_field_and_flag(self):
        section = self.section()
        for verb in wire.VERBS.values():
            assert f"`{verb.name}`" in section, verb.name
            for field in verb.fields:
                assert f"`{field.name}`" in section, (verb.name, field.name)
                if field.default is not None:
                    assert json.dumps(field.default) in section, field.name
        for flag in REPLY_FLAGS:
            assert f"`{flag}`" in section, flag
        assert str(wire.LINE_LIMIT) in section

    def test_protocol_is_described_nowhere_else(self):
        for name in ("server.py", "fleet.py", "client.py"):
            docstring = ast.get_docstring(ast.parse(
                (ROOT / "src" / "repro" / "service" / name).read_text()
            ))
            assert "repro.service.wire" in docstring
            assert '"verb"' not in docstring
