"""The service's session table is bounded and a retired session is small.

A finished session keeps its answer and its final numbers, not its
operator; only the newest ``FINISHED_RETENTION`` finished sessions stay
findable.  Before this, every session a worker ever finished stayed in a
list together with its operator: ~0.5 MB a query on the benchmark's
``cold_corner`` stream, for as long as the process ran.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.core.scoring import WeightedSum
from repro.service import QueryService, ServiceClient, ServiceError, SessionState
from repro.service import service as service_module
from repro.service.service import FINISHED_RETENTION

from tests.service.conftest import make_spec
from tests.service.test_server import running_server


class TestTracersFold:
    def test_four_hundred_cold_queries_keep_the_live_tracers_only(self):
        """The pipeline held one tracer per operator it ever saw: 400 after
        400 cold queries, all flushed at shutdown.  Now a finished
        operator's spans fold into one aggregate per operator name."""
        base = make_spec(k=3, operator="FRPA", n=40)
        service = QueryService(cache_capacity=8)
        for index in range(400):
            weights = [1.0, 1.0, 1.0, 1.0 + (index + 1) * 1e-6]
            service.run_query(dataclasses.replace(base, scoring=WeightedSum(weights)))
        gc.collect()
        # The cache holds answers only, so no cached entry keeps a tracer.
        assert len(service.cache) == 8
        assert len(service.obs._tracers) <= len(service.live_sessions) == 0
        spans = [r for r in service.obs.aggregate_events() if r["type"] == "span"]
        # Each path once: every operator has folded.
        paths = {r["path"] for r in spans}
        assert len(spans) == len(paths)
        calls = sum(r["count"] for r in spans if r["path"] == "get_next")
        assert calls >= 400 * 3  # every query's get_next calls still counted


class TestFinishedSessionsAgeOut:
    def test_three_tables_worth_of_queries_leave_one_table(self):
        spec = make_spec(k=1, operator="HRJN*", n=20)
        service = QueryService(cache_capacity=0)
        first = service.submit(spec)
        operator = weakref.ref(service.session(first).operator)
        service.drain(first)
        submitted = 3 * FINISHED_RETENTION + 1
        for _ in range(submitted - 1):
            service.run_query(spec)
        retained = service.finished_sessions
        assert len(retained) == FINISHED_RETENTION
        assert [s.session_id for s in retained] == [
            f"s{n}" for n in range(submitted - FINISHED_RETENTION + 1, submitted + 1)
        ], "the newest are kept, oldest first"
        assert service.session(first) is None
        assert service.session(f"s{submitted}") is retained[-1]
        assert service.stats()["sessions"] == []  # nothing live or queued
        gc.collect()
        assert operator() is None, "a retired session still pins its operator"
        # Cumulative, not what the table still holds.
        assert service.stats()["scheduler"]["finished"] == {"DONE": submitted}

    def test_a_cached_answer_pins_no_operator(self):
        spec = make_spec(k=5)
        service = QueryService()
        sid = service.submit(spec)
        operator = weakref.ref(service.session(sid).operator)
        session = service.drain(sid)
        assert session.state is SessionState.DONE
        assert service.cache.lookup(spec.fingerprint(), 5) == session.answer()
        gc.collect()
        assert operator() is None, "the cache pins a retired session's operator"

    def test_cancelled_sessions_are_counted_and_age_out_too(
        self, monkeypatch
    ):
        monkeypatch.setattr(service_module, "FINISHED_RETENTION", 2)
        service = QueryService(max_live=1)
        spec = make_spec(k=3)
        ids = [service.submit(dataclasses.replace(spec, k=k)) for k in (3, 4, 5)]
        assert service.cancel(ids[2]) and service.cancel(ids[1])  # queued ones
        service.run_until_complete()
        assert service.stats()["scheduler"]["finished"] == {
            "DONE": 1, "CANCELLED": 2}
        assert service.session(ids[2]) is None  # retired first, aged out first
        assert service.poll(ids[1])["state"] == "CANCELLED"
        assert service.poll(ids[0])["state"] == "DONE"
        assert not service.cancel(ids[2]), "an aged-out id is unknown"


class TestARetiredSessionKeepsItsNumbers:
    @pytest.mark.parametrize("plan", [
        {"operator": "FRPA"},
        {"algorithm": "anyk"},
    ], ids=["pbrj", "anyk"])
    def test_snapshot_is_the_same_without_the_operator(self, plan):
        spec = dataclasses.replace(make_spec(k=5), **plan)
        service = QueryService()
        at_finish = {}
        service.listen(
            lambda s: at_finish.update({s.session_id: (s.snapshot(), s.operator)}))
        sid = service.submit(spec)
        session = service.drain(sid)
        before, operator = at_finish[sid]
        assert operator is not None and session.operator is None
        assert before["pulls"] > 0 and sum(before["depths"]) > 0
        # Every field: pulls, depths, steps, scores, latency,
        # first_result_latency, complete, ...
        assert service.poll(sid) == before
        # A wider repeat is computed afresh; the retired session's numbers
        # stay its own.
        wider = service.drain(
            service.submit(dataclasses.replace(spec, k=15)))
        assert wider.pulls > 0 and not wider.from_cache
        assert service.poll(sid) == before

    def test_a_cache_hit_never_had_one(self):
        spec = make_spec(k=5)
        service = QueryService()
        service.run_query(spec)
        hit = service.poll(service.submit(spec))
        assert hit["from_cache"] and hit["state"] == "DONE"
        assert (hit["pulls"], hit["depths"]) == (0, [])
        assert len(hit["scores"]) == 5 and hit["complete"]


class TestRetireOrder:
    def test_a_listener_at_retire_sees_the_cached_prefix_and_the_operator(self):
        # Retire is count → cache store → listeners → operator released.
        service = QueryService()
        seen = []
        service.listen(lambda s: seen.append(
            (service.cache.lookup(s.cache_key, s.k), s.operator)))
        session = service.drain(service.submit(make_spec(k=5)))
        *released, (cached, operator) = seen
        assert len(released) == 5, "one call per release, then the retire"
        assert all(prefix is None for prefix, _ in released)
        assert cached == session.answer() and len(cached) == 5
        assert operator is not None
        assert session.operator is None


class TestAgedOutIdsOverTheWire:
    def test_poll_and_stream_answer_no_session_and_the_server_carries_on(
        self, monkeypatch
    ):
        monkeypatch.setattr(service_module, "FINISHED_RETENTION", 3)
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                finals = [
                    client.run(left="lineitem", right="orders", k=k)
                    for k in (2, 3, 4, 5)
                ]
                oldest, newest = finals[0]["session"], finals[-1]["session"]
                # The one-line reply a never-known id gets.
                with pytest.raises(ServiceError) as polled:
                    client.poll(oldest)
                with pytest.raises(ServiceError) as streamed:
                    list(client.stream_raw(oldest))
                assert str(polled.value) == str(streamed.value) \
                    == f"no session {oldest!r}"
                # The most recent finished id still answers — with what
                # its stream's ``done`` event said.
                assert client.poll(newest) == {"ok": True, **finals[-1]}
                again = client.run(left="lineitem", right="orders", k=6)
                assert again["state"] == "DONE"
                stats = client.stats()["scheduler"]
        assert stats["finished"] == {"DONE": 5}
