"""Client-side resilience: bounded waiting and retryable request chaos."""

from __future__ import annotations

import contextlib
import threading
import types

import pytest

from repro.service import (
    QueryService,
    RankJoinServer,
    ServiceClient,
    ServiceError,
)
from repro.resilience import RequestChaos
from tests.service.conftest import make_instance

INSTANCE = make_instance(seed=3, n=200, num_keys=20, k=10)
RELATIONS = {"lineitem": INSTANCE.left, "orders": INSTANCE.right}


class FakeClock:
    """Virtual time the scripted stream advances instead of burning CPU."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


class ScriptedClient(ServiceClient):
    """A client whose ``stream_raw`` is served from a script, not a socket:
    one result event per virtual second until ``done_at``, then ``done``."""

    def __init__(self, clock: FakeClock, done_at: float) -> None:
        super().__init__("nowhere", 0)
        self._clock = clock
        self._done_at = done_at
        self.closed = False

    def stream_raw(self, session_id: str, *, from_index: int = 0):
        index = from_index
        while self._clock.now < self._done_at:
            yield {"ok": True, "event": "result", "index": index, "score": 1.0}
            index += 1
            self._clock.now += 1.0
        yield {"ok": True, "event": "done", "session": session_id,
               "state": "DONE"}

    def close(self) -> None:
        self.closed = True
        super().close()


@pytest.fixture
def virtual_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(
        "repro.service.client.time",
        types.SimpleNamespace(monotonic=clock.monotonic),
    )
    return clock


class TestWaitTimeout:
    def test_timeout_still_raises(self, virtual_time):
        client = ScriptedClient(virtual_time, done_at=1e9)
        with pytest.raises(TimeoutError):
            client.wait("s1", timeout=2.0)
        # The abandoned stream is dropped with its connection, so the
        # next request starts on a clean one.
        assert client.closed

    def test_session_done_inside_the_timeout_returns_the_snapshot(
        self, virtual_time
    ):
        client = ScriptedClient(virtual_time, done_at=3.0)
        snapshot = client.wait("s1", timeout=5.0)
        assert snapshot == {"ok": True, "session": "s1", "state": "DONE"}
        assert not client.closed


@contextlib.contextmanager
def running_server(chaos=None):
    service = QueryService(quantum=16)
    server = RankJoinServer(service, RELATIONS, port=0, chaos=chaos)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(timeout=10.0), "server never became ready"
    try:
        yield server
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError, ConnectionError, ServiceError):
                with ServiceClient(server.host, server.port) as client:
                    client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "server thread failed to shut down"


class PatientClient(ServiceClient):
    """Raises the per-request retry budget to outlast dense chaos."""

    def request(self, payload: dict, *, max_retries: int = 10) -> dict:
        return super().request(payload, max_retries=max_retries)


class TestRequestChaosEndToEnd:
    def test_client_rides_through_injected_request_faults(self):
        """Seeded request chaos: every verb still completes via retries.

        With seed 4 the first several RNG draws sit below the 0.4 error
        rate, so the very first submit is answered with injected faults
        repeatedly — the retry loop must absorb a burst, not just a
        single blip.
        """
        chaos = RequestChaos(seed=4, error_rate=0.4, sleep=lambda _: None)
        with running_server(chaos=chaos) as server:
            with PatientClient(server.host, server.port) as client:
                final = client.run(
                    left="lineitem", right="orders", k=5, timeout=30.0,
                )
        assert final["state"] == "DONE"
        assert len(final["scores"]) == 5
        assert chaos.injected_errors > 0, "chaos never fired — vacuous test"

    def test_injected_fault_is_marked_retryable(self):
        chaos = RequestChaos(seed=0, error_rate=1.0, verbs=("poll",))
        with running_server(chaos=chaos) as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.poll("s1")
        assert excinfo.value.retryable

    def test_real_errors_are_not_retried(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.poll("no-such-session")
        assert not excinfo.value.retryable
