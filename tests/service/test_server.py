"""End-to-end socket tests: RankJoinServer + ServiceClient.

Each test boots a real server on an ephemeral port in a daemon thread,
talks to it over TCP, and asserts a clean shutdown (the server thread
terminates once asked to stop).
"""

import contextlib
import json
import socket
import threading

import pytest

from repro.core.naive import naive_top_k
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.obs import Observability
from repro.relation import relation as relation_module
from repro.relation.relation import Relation
from repro.service import (
    QueryService,
    QuerySession,
    QuerySpec,
    RankJoinServer,
    ServiceClient,
    ServiceError,
)

from tests.service.conftest import GatedOperator, make_instance

INSTANCE = make_instance(seed=0, n=200, num_keys=20, k=20)
RELATIONS = {"lineitem": INSTANCE.left, "orders": INSTANCE.right}

#: Serial reference: top-20 scores; the expected top-k is its prefix.
REFERENCE_SCORES = [
    r.score
    for r in QuerySpec(
        relations=(INSTANCE.left, INSTANCE.right), k=20
    ).build_operator().top_k(20)
]


def fresh_relations():
    """Copies of :data:`RELATIONS` with no view built yet."""
    return {name: Relation(name, rel.tuples) for name, rel in RELATIONS.items()}


def refuse_rebuilds(monkeypatch) -> None:
    """Make the per-tuple fingerprint digest and the key-code builder raise:
    from here on, a view that was not built already cannot be."""
    def rebuilt(*args):
        raise AssertionError("a served relation rebuilt a view")

    monkeypatch.setattr(relation_module, "_tuple_digest", rebuilt)
    monkeypatch.setattr(relation_module, "encode_keys", rebuilt)


def naive_scores(relations, k, scoring=SumScore()):
    """The reference top-``k`` scores of lineitem ⋈ orders, wire-rounded."""
    return [round(r.score, 6) for r in naive_top_k(
        relations["lineitem"].tuples, relations["orders"].tuples, scoring, k)]


@contextlib.contextmanager
def running_server(service=None, **service_kwargs):
    if service is None:
        service_kwargs.setdefault("quantum", 16)
        service = QueryService(**service_kwargs)
    with serving(RankJoinServer(service, RELATIONS, port=0)) as server:
        yield server


@contextlib.contextmanager
def serving(server):
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


class TestViewsAreBuiltAtConstruction:
    """A server builds the views every query reads when it is constructed:
    the fingerprint, the score matrix and the tuple-key codes."""

    def test_a_first_query_rebuilds_no_view(self, monkeypatch):
        """At the parent the first query computed the fingerprint, and the
        submit failed."""
        relations = fresh_relations()
        server = RankJoinServer(QueryService(quantum=16), relations, port=0)
        refuse_rebuilds(monkeypatch)
        with serving(server):
            with ServiceClient(server.host, server.port) as client:
                final = client.run(left="lineitem", right="orders", k=5)
        assert final["state"] == "DONE"
        assert final["scores"] == naive_scores(relations, 5)

    def test_an_unservable_relation_is_refused_at_construction(self):
        """A score outside [0, 1] is the one-line error the first query
        used to raise, before anything listens."""
        bad = {**fresh_relations(),
               "bad": Relation("bad", [RankTuple(1, (0.5, 1.5))])}
        with pytest.raises(InstanceError) as refused:
            RankJoinServer(QueryService(), bad, port=0)
        assert str(refused.value) == (
            "relation 'bad': score 1.5 outside [0, 1] at row 0, column 1")


class TestProtocol:
    def test_submit_poll_round_trip(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                final = client.run(left="lineitem", right="orders", k=5)
        assert final["state"] == "DONE"
        assert final["complete"] is True
        assert final["scores"] == [round(s, 6) for s in REFERENCE_SCORES[:5]]
        assert final["pulls"] > 0

    def test_stats_include_scheduler_cache_and_relations(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                client.run(left="lineitem", right="orders", k=3)
                stats = client.stats()
        assert stats["scheduler"]["max_live"] == 8
        assert stats["cache"]["entries"] == 1
        assert stats["relations"] == {"lineitem": 200, "orders": 200}

    def test_cancel_over_the_wire(self):
        # A gated session holds the only slot: the query is still queued
        # when the cancel arrives, however fast the driver is.
        service = QueryService(max_live=1)
        service.admit(QuerySession("held", GatedOperator(), 1))
        with running_server(service) as server:
            with ServiceClient(server.host, server.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=20,
                                    operator="HRJN")
                assert client.cancel(sid) is True
                final = client.wait(sid)
                assert client.cancel(sid) is False
        assert final["state"] == "CANCELLED"

    def test_unknown_verb_is_clean_error(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError, match="unknown verb"):
                    client.request({"verb": "frobnicate"})

    def test_unknown_relation_is_clean_error(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError, match="unknown relations"):
                    client.submit(left="nope", right="orders", k=3)

    def test_unknown_operator_on_a_chain_is_clean_error(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError, match="unknown operator 'nope'"):
                    client.submit(relations=["lineitem", "orders", "lineitem"],
                                  join_attrs=["a", "b"], k=3, operator="nope")

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_retired_backends_are_the_tables_bad_request(self, backend):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.submit(left="lineitem", right="orders", k=3,
                                  backend=backend)
                assert str(err.value) == (
                    "bad request: field 'backend' must be the string "
                    f"\"serial\", got {backend!r}"
                )
                # The rejection is an ok:false line, not a dead server.
                final = client.run(left="lineitem", right="orders", k=3,
                                   backend="serial")
        assert final["state"] == "DONE"

    def test_unknown_session_is_clean_error(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                with pytest.raises(ServiceError, match="no session"):
                    client.poll("s999")

    def test_invalid_json_line(self):
        with running_server() as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10.0
            ) as sock:
                handle = sock.makefile("rwb")
                handle.write(b"this is not json\n")
                handle.flush()
                response = json.loads(handle.readline())
        assert response["ok"] is False
        assert "invalid JSON" in response["error"]

    def test_a_submit_without_trace_gets_the_sessions_trace(self):
        # One mint: the service's root, echoed by the reply and the poll.
        with running_server() as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10.0
            ) as sock:
                handle = sock.makefile("rwb")

                def ask(frame):
                    handle.write(json.dumps(frame).encode() + b"\n")
                    handle.flush()
                    return json.loads(handle.readline())

                reply = ask({"verb": "submit", "left": "lineitem",
                             "right": "orders", "k": 3})
                polled = ask({"verb": "poll", "session": reply["session"]})
        assert reply["ok"] and reply["trace"] is not None
        assert reply["trace"] == polled["trace"]

    def test_weighted_scoring_over_the_wire(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                final = client.run(
                    left="lineitem", right="orders", k=3,
                    weights=[[2.0, 1.0], [1.0, 0.5]],
                )
        assert final["state"] == "DONE" and len(final["scores"]) == 3


class TestConcurrency:
    def test_twenty_concurrent_clients(self):
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def query(k: int):
            try:
                with ServiceClient(server.host, server.port) as client:
                    results[k] = client.run(
                        left="lineitem", right="orders", k=k, timeout=60.0
                    )
            except Exception as exc:  # surfaced to the main thread below
                errors.append(exc)

        with running_server(max_live=6) as server:
            threads = [
                threading.Thread(target=query, args=(k,))
                for k in range(1, 21)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)

        assert not errors, errors
        assert len(results) == 20
        for k, final in results.items():
            assert final["state"] == "DONE", (k, final)
            # Interleaving (and opportunistic cache prefix reuse) never
            # changes any query's answer: always the serial top-k prefix.
            assert final["scores"] == [round(s, 6) for s in REFERENCE_SCORES[:k]]


class TestCachingOverTheWire:
    def test_repeat_query_is_cache_hit_with_zero_pulls(self):
        obs = Observability()
        with running_server(obs=obs) as server:
            with ServiceClient(server.host, server.port) as client:
                first = client.run(left="lineitem", right="orders", k=8)
                assert first["from_cache"] is False and first["pulls"] > 0
                second = client.run(left="lineitem", right="orders", k=8)
        assert second["state"] == "DONE"
        assert second["scores"] == first["scores"]
        assert second["from_cache"] is True
        assert second["pulls"] == 0
        assert obs.metrics.value("service_cache_hits_total") == 1
