"""The ``stream`` verb: results pushed the moment the merge gate frees them.

Covers the wire contract (sequential indexes, release-order scores, the
terminal ``done`` snapshot), cursor resume, and the client-side
``wait``-rides-the-stream path (there is no poll-loop fallback).
"""

import threading

import pytest

from repro.service import ServiceClient, ServiceError

from tests.service.test_server import REFERENCE_SCORES, running_server

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
