"""ServeFleet integration: routing, namespacing, shared cache, shutdown.

Each test boots a real multi-process fleet (fork-context workers behind
the asyncio front-end) on an ephemeral port and asserts the worker
processes are fully reaped at teardown.
"""

import contextlib
import multiprocessing
import threading

import pytest

from repro.service import ServeFleet, ServiceClient, ServiceError, TenantQuotas

from tests.service.test_server import REFERENCE_SCORES, RELATIONS

ROUNDED_REFERENCE = [round(s, 6) for s in REFERENCE_SCORES]


@contextlib.contextmanager
def running_fleet(workers=2, **kwargs):
    kwargs.setdefault("service_kwargs", {"quantum": 16})
    fleet = ServeFleet(RELATIONS, workers=workers, port=0, **kwargs)
    thread = threading.Thread(target=fleet.run, daemon=True)
    thread.start()
    assert fleet.ready.wait(timeout=60.0), "fleet never became ready"
    try:
        yield fleet
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError, ConnectionError, ServiceError):
                with ServiceClient(fleet.host, fleet.port) as client:
                    client.shutdown()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "fleet front-end failed to shut down"
    leaked = [p for p in multiprocessing.active_children()
              if p.name.startswith("repro-fleet")]
    assert leaked == [], f"worker processes leaked: {leaked}"


class TestFleet:
    def test_idle_fleet_exits_after_begin_shutdown_from_another_thread(self):
        """The front-end stops, and its workers — each parked on an event,
        not polling a flag — are told, exit and are joined."""
        fleet = ServeFleet(RELATIONS, workers=2, port=0)
        thread = threading.Thread(target=fleet.run, daemon=True)
        thread.start()
        assert fleet.ready.wait(timeout=60.0), "fleet never became ready"
        fleet.begin_shutdown()  # this thread is not the loop's
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "run() did not return"
        assert fleet.draining is True
        assert [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-fleet")] == []

    def test_round_trip_namespacing_and_stats(self):
        with running_fleet(workers=2) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                finals = [
                    client.run(left="lineitem", right="orders", k=5,
                               worker=worker)
                    for worker in range(2)
                ]
                stats = client.stats()
        # Both workers compute the identical answer, under fleet-wide ids.
        assert {f["session"] for f in finals} == {"w0:s1", "w1:s1"}
        for final in finals:
            assert final["state"] == "DONE"
            assert final["scores"] == ROUNDED_REFERENCE[:5]
        assert stats["fleet"]["workers"] == 2
        assert stats["fleet"]["alive"] == 2
        assert len(stats["workers"]) == 2
        # Merged view: both workers' retired sessions are counted.
        assert stats["slo"]["sessions_finished"] == 2

    def test_stream_through_the_front_end(self):
        with running_fleet(workers=2) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=8)
                events = list(client.stream(sid))
        assert events[-1]["event"] == "done"
        assert events[-1]["session"] == sid
        results = events[:-1]
        assert [e["index"] for e in results] == list(range(8))
        assert [e["score"] for e in results] == ROUNDED_REFERENCE[:8]

    def test_shared_cache_spans_workers(self):
        with running_fleet(workers=2) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                first = client.run(left="lineitem", right="orders", k=12,
                                   operator="HRJN", worker=0)
                assert first["from_cache"] is False
                second = client.run(left="lineitem", right="orders", k=12,
                                    operator="HRJN", worker=1)
                stats = client.stats()
        # Worker 1 never computed this query: it found worker 0's answer
        # in the cross-process disk tier.
        assert second["scores"] == first["scores"]
        assert second["from_cache"] is True
        assert second["pulls"] == 0
        assert stats["cache"]["shared_hits"] >= 1

    def test_front_end_quotas_throttle_before_routing(self):
        quotas = TenantQuotas(rate=0.5, burst=2)
        with running_fleet(workers=2, quotas=quotas) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                for _ in range(2):
                    client.submit(left="lineitem", right="orders", k=2,
                                  tenant="alice")
                with pytest.raises(ServiceError, match="quota") as excinfo:
                    client.request({
                        "verb": "submit", "left": "lineitem",
                        "right": "orders", "k": 2, "tenant": "alice",
                    }, max_retries=0)
                metrics = client.metrics()
                stats = client.stats()
        assert excinfo.value.retryable
        assert excinfo.value.retry_after is not None
        assert 'service_throttled_total{tenant="alice"} 1' in metrics
        # The rejection must be counted in the merged stats view too —
        # the front-end admits through TenantQuotas.admit(), not the
        # raw bucket, so `throttled` and the metric stay in step.
        assert stats["fleet"]["quotas"]["throttled"] == {"alice": 1}
