"""The ``stream`` verb: results pushed the moment the merge gate frees them.

Covers the wire contract (sequential indexes, release-order scores, the
terminal ``done`` snapshot), cursor resume, the client-side
``wait``-rides-the-stream path (there is no poll-loop fallback), a cache
hit's stream riding its submit reply, and —
over real sockets, ordered by gates instead of sleeps — every transition
that has to wake a parked stream now that no timeout does.
"""

import contextlib
import threading

import pytest

from repro.service import (
    QueryService,
    QuerySession,
    QuerySpec,
    ServiceClient,
    ServiceError,
    wire,
)

from tests.resilience.test_deadlines import ManualClock
from tests.service.conftest import RELEASED, GatedOperator
from tests.service.test_server import (
    INSTANCE,
    REFERENCE_SCORES,
    running_server,
)
from tests.service.test_fleet import running_fleet
from tests.service.test_shutdown import running_server as server_and_thread

ROUNDED_REFERENCE = [round(s, 6) for s in REFERENCE_SCORES]


def split_events(events):
    """Partition a consumed stream into (result events, done event)."""
    assert events, "stream produced no events"
    done = events[-1]
    assert done.get("event") == "done", f"stream did not end in done: {done}"
    results = events[:-1]
    assert all(e.get("event") == "result" for e in results)
    return results, done


class TestStreamVerb:
    def test_results_stream_in_release_order(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=8)
                events = list(client.stream(sid))
        results, done = split_events(events)
        assert [e["index"] for e in results] == list(range(8))
        assert [e["score"] for e in results] == ROUNDED_REFERENCE[:8]
        # The pushed sequence IS the final answer, in order.
        assert done["state"] == "DONE"
        assert done["scores"] == ROUNDED_REFERENCE[:8]

    def test_release_timestamps_are_monotone(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=10)
                events = list(client.stream(sid))
        results, _ = split_events(events)
        stamps = [e["ts"] for e in results]
        assert stamps == sorted(stamps)

    def test_stream_resumes_from_cursor(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=8)
                client.wait(sid)
                events = list(client.stream(sid, from_index=5))
        results, done = split_events(events)
        assert [e["index"] for e in results] == [5, 6, 7]
        assert [e["score"] for e in results] == ROUNDED_REFERENCE[5:8]
        assert done["scores"] == ROUNDED_REFERENCE[:8]

    def test_streaming_a_finished_session_replays_everything(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                final = client.run(left="lineitem", right="orders", k=5)
                events = list(client.stream(final["session"]))
        results, done = split_events(events)
        assert [e["score"] for e in results] == final["scores"]
        assert done["scores"] == final["scores"]

    def test_unknown_session_is_clean_error(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError, match="no session"):
                    list(client.stream("s999"))

    def test_concurrent_streams_of_one_live_session_agree(self):
        """Two clients riding the same live session see identical events."""
        sequences: dict[int, list] = {}
        errors: list[Exception] = []

        def consume(slot: int, sid: str):
            try:
                with ServiceClient(server.host, server.port) as client:
                    sequences[slot] = [
                        e["score"] for e in client.stream(sid)
                        if e.get("event") == "result"
                    ]
            except Exception as exc:  # surfaced to the main thread below
                errors.append(exc)

        with running_server(quantum=4) as server:
            with ServiceClient(server.host, server.port) as submitter:
                sid = submitter.submit(left="lineitem", right="orders", k=12)
                threads = [
                    threading.Thread(target=consume, args=(slot, sid))
                    for slot in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
        assert not errors, errors
        assert sequences[0] == sequences[1] == ROUNDED_REFERENCE[:12]


class TestParkedStreamsAreWoken:
    """Nothing times out in the stream relay, so each of these hangs (and
    fails on the client's socket timeout) if its wake-up is missing.

    The sessions are gated (see :class:`GatedOperator`): a stream's first,
    replayed event proves its handler is attached before the test makes
    the transition happen.
    """

    @staticmethod
    def held(session_id="held", k=2, **kwargs):
        return QuerySession(session_id, GatedOperator(), k,
                            preloaded=[RELEASED], **kwargs)

    @staticmethod
    def attach(client, session_id):
        """Open a stream and read its replayed event: it is parked now."""
        events = client.stream_raw(session_id)
        first = next(events)
        assert (first["event"], first["index"]) == ("result", 0)
        return events

    def test_cancel_from_a_second_connection(self):
        service = QueryService()
        service.admit(self.held())
        with running_server(service) as server:
            with ServiceClient(server.host, server.port, timeout=10.0) as a, \
                    ServiceClient(server.host, server.port) as b:
                events = self.attach(a, "held")
                assert b.cancel("held") is True
                (done,) = list(events)
        assert (done["event"], done["state"]) == ("done", "CANCELLED")
        assert done["results"] == 1

    def test_deadline_swept_inside_a_tick(self):
        clock = ManualClock()
        service = QueryService()
        service.admit(self.held(k=3, deadline=1.0, clock=clock))
        with running_server(service) as server:
            with ServiceClient(server.host, server.port, timeout=10.0) as client:
                events = self.attach(client, "held")
                clock.now = 2.0
                (done,) = list(events)
        assert (done["event"], done["state"]) == ("done", "DONE")
        assert done["deadline_exceeded"] is True and not done["complete"]
        assert done["scores"] == [RELEASED.score]  # the partial prefix

    def test_queued_session_streams_every_event_once_admitted(self):
        operator = QuerySpec(
            relations=(INSTANCE.left, INSTANCE.right), k=8).build_operator()
        service = QueryService(max_live=1)
        slot = GatedOperator()
        service.admit(QuerySession("slot", slot, 1))
        service.admit(QuerySession(
            "queued", operator, 8, quantum=4, preloaded=operator.top_k(3)))
        with running_server(service) as server:
            with ServiceClient(server.host, server.port, timeout=10.0) as client:
                events = client.stream_raw("queued")
                replayed = [next(events) for _ in range(3)]
                assert server.service.session("queued").state.value == "PENDING"
                slot.open.set()  # the slot frees; the queued session runs
                results, done = split_events(replayed + list(events))
        assert [e["index"] for e in results] == list(range(8))
        assert [e["score"] for e in results] == ROUNDED_REFERENCE[:8]
        assert done["state"] == "DONE" and done["scores"] == ROUNDED_REFERENCE[:8]

    def test_forced_shutdown_reaches_a_stream_on_a_queued_session(self):
        service = QueryService(max_live=1)
        service.admit(QuerySession("slot", GatedOperator(), 1))
        service.admit(self.held("queued"))
        with server_and_thread(service) as (server, thread):
            with ServiceClient(server.host, server.port, timeout=10.0) as client:
                events = self.attach(client, "queued")
                server.begin_shutdown()
                server.begin_shutdown()  # the second call skips the drain
                with pytest.raises(ServiceError, match="stopped mid-stream"):
                    list(events)
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_two_live_sessions_wake_only_their_own_streams(self):
        """Both sessions run interleaved (round-robin, one pull a tick);
        each stream sees its own indexes, gap-free, and nothing else."""
        spec = QuerySpec(relations=(INSTANCE.left, INSTANCE.right), k=12)
        service = QueryService(max_live=2)
        slots = GatedOperator()  # one gate under both slot holders
        for name in ("slot-a", "slot-b"):
            service.admit(QuerySession(name, slots, 1))
        wanted = {"a": 12, "b": 9}
        for name, k in wanted.items():
            operator = spec.build_operator()
            service.admit(QuerySession(
                name, operator, k, quantum=1, preloaded=operator.top_k(1)))
        with running_server(service) as server:
            with ServiceClient(server.host, server.port, timeout=10.0) as a, \
                    ServiceClient(server.host, server.port, timeout=10.0) as b:
                streams = {"a": self.attach(a, "a"), "b": self.attach(b, "b")}
                slots.open.set()  # both admitted in the same tick
                seen = {}
                consumers = [
                    threading.Thread(
                        target=lambda n=name: seen.update({n: list(streams[n])}))
                    for name in streams
                ]
                for thread in consumers:
                    thread.start()
                for thread in consumers:
                    thread.join(timeout=30.0)
            assert not server._parked, "a finished session left an event behind"
        for name, k in wanted.items():
            results, done = split_events(seen[name])
            assert {e["session"] for e in results} | {done["session"]} == {name}
            assert [e["index"] for e in results] == list(range(1, k))
            assert done["scores"] == ROUNDED_REFERENCE[:k]
            assert done["steps"] > k  # it ran beside the other one, and
            # most of its quanta released nothing (and woke nobody)


class RequestCountingClient(ServiceClient):
    """Records the verb of every request it puts on the wire."""

    def __init__(self, host, port):
        super().__init__(host, port)
        self.verbs = []

    def _send(self, payload):
        self.verbs.append(payload["verb"])
        super()._send(payload)


@contextlib.contextmanager
def cache_hit(kind, k=6, **query):
    """A client and the id of a cache hit it just submitted, on a server or
    on a 2-worker fleet (there computed on ``w0``, hit on ``w1``)."""
    serving = running_server() if kind == "server" else running_fleet()
    pins = ({}, {}) if kind == "server" else ({"worker": 0}, {"worker": 1})
    query = dict(left="lineitem", right="orders", k=k, **query)
    with serving as target:
        with RequestCountingClient(target.host, target.port) as client:
            assert client.run(**query, **pins[0])["from_cache"] is False
            sid = client.submit(**query, **pins[1])
            client.verbs.clear()
            yield client, sid


@pytest.mark.parametrize("kind", ["server", "fleet"])
class TestACacheHitStreamsFromItsSubmitReply:
    """A session born ``DONE`` gets its stream in the submit reply: the
    client streams it with no second round trip."""

    def test_its_stream_is_the_wire_stream_with_no_request(self, kind):
        with cache_hit(kind) as (client, sid):
            inline = list(client.stream(sid))
            assert client.verbs == []
            sent = list(client.stream_raw(sid))
            assert client.verbs == ["stream"]
            polled = client.poll(sid)
        assert inline == sent
        results, done = split_events(inline)
        assert [e["index"] for e in results] == list(range(6))
        assert [e["score"] for e in results] == ROUNDED_REFERENCE[:6]
        assert {e["session"] for e in inline} == {sid}
        assert done["from_cache"] is True and done["pulls"] == 0
        assert done == dict(polled, event="done")

    def test_it_replays_from_the_cursor(self, kind):
        with cache_hit(kind) as (client, sid):
            tail = list(client.stream(sid, from_index=4))
            assert client.verbs == []
            assert tail == list(client.stream_raw(sid, from_index=4))
        assert [e.get("index") for e in tail] == [4, 5, None]

    def test_a_second_stream_goes_to_the_wire(self, kind):
        with cache_hit(kind) as (client, sid):
            first = list(client.stream(sid))
            assert client.verbs == []
            again = list(client.stream(sid))
            assert client.verbs == ["stream"]
        assert again == first

    def test_run_takes_one_request(self, kind):
        with cache_hit(kind) as (client, sid):
            final = client.run(left="lineitem", right="orders", k=6)
            assert client.verbs == ["submit"]
        assert final["from_cache"] is True
        assert final["scores"] == ROUNDED_REFERENCE[:6]

    def test_a_live_submit_reply_carries_no_events(self, kind):
        with cache_hit(kind) as (client, _):
            live = client.request({"verb": "submit", "left": "lineitem",
                                   "right": "orders", "k": 7})
            hit = client.request({"verb": "submit", "left": "lineitem",
                                  "right": "orders", "k": 3})
        assert live["state"] not in wire.TERMINAL and "events" not in live
        assert hit["state"] == "DONE"
        assert [e["event"] for e in hit["events"]] == ["result"] * 3 + ["done"]


def test_a_cache_hit_past_the_line_limit_crosses_the_fleet():
    """A top-1000 cache hit's submit reply is longer than a request may
    be; the front-end reads and relays it whole."""
    with cache_hit("fleet", k=1000, algorithm="anyk") as (client, sid):
        events = list(client.stream(sid))
        assert client.verbs == []
    results, done = split_events(events)
    assert len(wire.encode({"events": events})) > wire.LINE_LIMIT
    assert [e["index"] for e in results] == list(range(1000))
    assert [e["score"] for e in results] == done["scores"]
    assert done["from_cache"] is True


class PollCountingClient(ServiceClient):
    def __init__(self, host, port):
        super().__init__(host, port)
        self.polls = 0
        self.stream_requests = 0

    def poll(self, session_id):
        self.polls += 1
        return super().poll(session_id)

    def stream_raw(self, session_id, *, from_index=0):
        self.stream_requests += 1
        return super().stream_raw(session_id, from_index=from_index)


class LegacyServerClient(PollCountingClient):
    """Acts like a client talking to a server without the stream verb."""

    def stream_raw(self, session_id, *, from_index=0):
        self.stream_requests += 1
        raise ServiceError("unknown verb 'stream'")
        yield  # pragma: no cover - generator marker


class TestWaitRidesStream:
    def test_wait_uses_stream_and_never_polls(self):
        with running_server() as server:
            with PollCountingClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=6)
                final = client.wait(sid)
        assert final["state"] == "DONE"
        assert final["scores"] == ROUNDED_REFERENCE[:6]
        assert client.stream_requests >= 1
        assert client.polls == 0, "wait fell back to polling a streaming server"

    def test_wait_surfaces_a_missing_stream_verb_instead_of_polling(self):
        with running_server() as server:
            with LegacyServerClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=6)
                with pytest.raises(ServiceError, match="unknown verb"):
                    client.wait(sid)
        assert client.stream_requests == 1
        assert client.polls == 0
