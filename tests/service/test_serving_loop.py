"""Nothing between the socket and the operator runs on a timer.

The server's driver sleeps on an event and streams wake on release, so
an idle server executes nothing at all — asserted here as a *count* of
service ticks, which a clock-based CPU reading on a shared box could
not pin — and the mechanisms this replaced are kept out at source level.
"""

import asyncio
import inspect
import re
import socket
import threading
import time

import pytest

from repro.core.stepping import PENDING
from repro.service import (
    QueryService,
    QuerySession,
    QuerySpec,
    ServiceClient,
    server,
    wire,
)

from tests.service.test_server import INSTANCE, REFERENCE_SCORES, running_server


class CountingService(QueryService):
    ticks = 0

    def tick(self) -> bool:
        self.ticks += 1
        return super().tick()


class TestAnIdleServerDoesNothing:
    def test_ticks_are_counted_in_work_not_in_time(self):
        service = CountingService(quantum=16)
        with running_server(service) as running:
            with ServiceClient(running.host, running.port) as client:
                client.stats()  # the loop has turned: the driver is parked
                parked = service.ticks
                assert parked <= 1  # the one idle tick it parked on
                time.sleep(0.3)
                assert service.ticks == parked, "an idle server ticked"

                final = client.run(left="lineitem", right="orders", k=8)
                assert final["steps"] > 1
                spent = service.ticks - parked
                # One tick per step, plus the idle tick it parks on again
                # (which may not have run yet).
                assert final["steps"] <= spent <= final["steps"] + 1
                time.sleep(0.3)
                assert service.ticks == parked + final["steps"] + 1

                # A cache hit is answered in the submit: no tick at all.
                again = client.run(left="lineitem", right="orders", k=8)
                assert again["from_cache"] and again["steps"] == 0
                assert service.ticks == parked + final["steps"] + 1


class TestTheReplacedMechanismsStayOut:
    def test_no_timeout_and_no_timed_sleep_in_the_server(self):
        source = inspect.getsource(server)
        assert "wait_for" not in source
        sleeps = re.findall(r"\bsleep\(([^)]*)\)", source)
        assert sleeps == ["0"], "the driver's yield is the only sleep"

    def test_no_walk_over_finished_sessions_in_find_or_stats(self):
        for method in (QueryService.session, QueryService.stats):
            source = inspect.getsource(method)
            assert not re.search(r"self\._finished\b", source), method.__name__
        assert "for " not in inspect.getsource(QueryService.session)


@pytest.fixture
def loop_turns(monkeypatch):
    """The driver's yields to the event loop, counted: ``[n]``."""
    turns = [0]
    real_sleep = asyncio.sleep

    async def sleep(delay, *args, **kwargs):
        turns[0] += 1
        return await real_sleep(delay, *args, **kwargs)

    monkeypatch.setattr(server.asyncio, "sleep", sleep)
    return turns


class TestTheDriverYieldsForWork:
    """The driver yields after a step only when the step released or
    retired something, or once it has held the loop for ``HOLD``.  With
    ``HOLD`` out of reach the yields are a count, not a timing."""

    ANYK = {"left": "lineitem", "right": "orders",
            "operator": "AnyK", "algorithm": "anyk"}

    def test_one_turn_per_releasing_step(self, monkeypatch, loop_turns):
        monkeypatch.setattr(server, "HOLD", float("inf"), raising=False)
        with running_server() as running:
            with ServiceClient(running.host, running.port) as client:
                final = client.run(k=5, **self.ANYK)
        # Many steps of DP release nothing; the fifth release retires the
        # session in the same step, so that step's turn is the retire's.
        assert final["steps"] > 5 and final["results"] == 5
        assert loop_turns[0] == 5

    def test_one_turn_at_a_retire_that_releases_nothing(
        self, monkeypatch, loop_turns
    ):
        monkeypatch.setattr(server, "HOLD", float("inf"), raising=False)
        with running_server() as running:
            with ServiceClient(running.host, running.port) as client:
                # The budget runs out inside the DP: no result, one retire.
                final = client.run(k=5, max_pulls=400, **self.ANYK)
        assert final["budget_exhausted"] and final["results"] == 0
        assert final["steps"] > 1
        assert loop_turns[0] == 1


class HeldRelease:
    """Runs ``operator`` but releases nothing until ``open`` is set: the
    first outcome it proves is held back, and each step meanwhile is a
    pending one that pulls nothing."""

    def __init__(self, operator) -> None:
        self.operator = operator
        self.open = threading.Event()
        self._held = []

    @property
    def pulls(self):
        return self.operator.pulls

    def depths(self):
        return self.operator.depths()

    def try_next(self, max_pulls=None):
        if not self._held:
            outcome = self.operator.try_next(max_pulls=max_pulls)
            if outcome is PENDING:
                return outcome
            self._held.append(outcome)
        return self._held.pop() if self.open.is_set() else PENDING


class TestTheLoopAnswersDuringALongStretch:
    def test_a_poll_is_answered_while_the_session_releases_nothing(self):
        """A lone session, admitted before the server starts, runs any-k's
        DP and then steps on, releasing nothing, until the test lets it; a
        client's ``poll`` 20 ms in is answered meanwhile, so ``HOLD``, not
        the session, bounds how long a request waits.  Yielding only at
        releases would leave the poll unanswered for good."""
        spec = QuerySpec(relations=(INSTANCE.left, INSTANCE.right), k=5,
                         operator="AnyK", algorithm="anyk")
        held = HeldRelease(spec.build_operator())
        service = QueryService(quantum=16)
        service.admit(QuerySession("anyk", held, 5, quantum=16))
        with running_server(service) as running:
            with ServiceClient(running.host, running.port, timeout=5.0) as client:
                time.sleep(0.02)
                during = client.poll("anyk")
                held.open.set()
                final = client.wait("anyk")
        assert during["state"] == "RUNNING" and during["results"] == 0
        assert during["pulls"] > 0  # the DP ran: any-k reads its input first
        assert final["state"] == "DONE"
        assert final["scores"] == [round(s, 6) for s in REFERENCE_SCORES[:5]]

    def test_a_request_read_at_a_held_yield_is_answered_before_the_next_step(
        self, monkeypatch
    ):
        """With ``HOLD`` at zero every step that releases nothing ends in a
        held yield.  A ``poll`` whose bytes arrive during a step is read
        in the turn after it and answered in the next: the held yield
        outlasts both, so no step runs in between.  A yield of one turn
        would let two more steps run first."""
        monkeypatch.setattr(server, "HOLD", 0.0)
        spec = QuerySpec(relations=(INSTANCE.left, INSTANCE.right), k=5,
                         operator="AnyK", algorithm="anyk")
        held = HeldRelease(spec.build_operator())
        service = ArmedService(quantum=16)
        service.admit(QuerySession("anyk", held, 5, quantum=16))
        with running_server(service) as running:
            with socket.create_connection(
                (running.host, running.port), timeout=5.0
            ) as sock:
                replies = sock.makefile("rb")
                sock.sendall(POLL)
                assert wire.decode(replies.readline())["state"] == "RUNNING"
                service.armed = sock  # the next tick sends the second poll
                during = wire.decode(replies.readline())
            held.open.set()
            with ServiceClient(running.host, running.port) as client:
                final = client.wait("anyk")
        assert during["state"] == "RUNNING" and final["state"] == "DONE"
        assert service.polled_at == service.sent_at


POLL = wire.encode({"verb": "poll", "session": "anyk"})


class ArmedService(QueryService):
    """Counts ticks; once ``armed`` with a socket, the next tick sends
    :data:`POLL` on it before stepping.  Notes the tick each poll is
    answered in."""

    ticks = 0
    armed = None
    sent_at = polled_at = None

    def tick(self) -> bool:
        self.ticks += 1
        if self.armed is not None:
            sock, self.armed = self.armed, None
            sock.sendall(POLL)
            self.sent_at = self.ticks
        return super().tick()

    def poll(self, session_id: str):
        self.polled_at = self.ticks
        return super().poll(session_id)
