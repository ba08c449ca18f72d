"""Nothing between the socket and the operator runs on a timer.

The server's driver sleeps on an event and streams wake on release, so
an idle server executes nothing at all — asserted here as a *count* of
service ticks, which a clock-based CPU reading on a shared box could
not pin — and the mechanisms this replaced are kept out at source level.
"""

import inspect
import re
import time

from repro.service import QueryService, ServiceClient, server

from tests.service.test_server import running_server


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
