"""Wire-level tests for the live telemetry plane: metrics verb, SLO stats."""

from tests.service.conftest import GatedOperator
from tests.service.test_server import running_server

from repro.service import QueryService, QuerySession, ServiceClient

REQUIRED_FAMILIES = (
    "service_sessions_total",
    "service_session_seconds",
    "service_pulls_total",
    "service_queue_depth",
    "slo_session_seconds",
)


class TestMetricsVerb:
    def test_exposition_contains_required_families(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                client.run(left="lineitem", right="orders", k=5)
                text = client.metrics()
        for family in REQUIRED_FAMILIES:
            assert family in text, f"missing metric family {family}"
        assert "# TYPE service_session_seconds histogram" in text
        assert 'slo_session_seconds{quantile="0.95"}' in text
        # Nothing feeds the sharded engine's families any more.
        assert "shard" not in text and "worker_" not in text


class TestStatsTelemetry:
    def test_stats_carry_slo_and_sessions(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                client.run(left="lineitem", right="orders", k=5)
                stats = client.stats()
        slo = stats["slo"]
        percentiles = slo["session_seconds"]
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert all(p is not None and p > 0 for p in percentiles.values())
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        assert slo["sessions_finished"] >= 1
        assert "shard_imbalance_max" not in slo
        assert "shards" not in stats and "default_shards" not in stats
        assert stats["sessions"] == []  # nothing in flight after run()

    def test_live_sessions_listed(self):
        # A gated session holds the only slot, so the submitted query is
        # still queued — and listed — whenever ``stats`` is answered.  (The
        # driver starts a submitted query at once; nothing is "in flight
        # for the next few milliseconds" by default.)
        service = QueryService(max_live=1)
        service.scheduler.submit(QuerySession("held", GatedOperator(), 1))
        with running_server(service) as server:
            with ServiceClient(server.host, server.port) as client:
                session_id = client.submit(left="lineitem", right="orders", k=5)
                stats = client.stats()
                assert client.cancel(session_id)
                assert client.cancel("held")
        listed = {s["session"]: s["state"] for s in stats["sessions"]}
        assert listed == {"held": "RUNNING", session_id: "PENDING"}
        (brief,) = [s for s in stats["sessions"] if s["session"] == session_id]
        assert set(brief) == {"session", "state", "label", "plan", "results",
                              "k", "pulls"}


class TestSubmitTrace:
    def test_submit_response_echoes_trace_id(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                client.submit(left="lineitem", right="orders", k=5)
                assert client.last_trace
                assert len(client.last_trace) == 16  # 8 bytes hex
