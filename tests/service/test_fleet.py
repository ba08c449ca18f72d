"""ServeFleet integration: routing, namespacing, shared cache, shutdown.

Each test boots a real multi-process fleet (fork-context workers behind
the asyncio front-end) on an ephemeral port and asserts the worker
processes are fully reaped at teardown.
"""

import contextlib
import json
import multiprocessing
import socket
import tempfile
import threading
import time

import pytest

from repro.core.scoring import WeightedSum
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.relation.relation import Relation
from repro.service import (
    QuerySpec,
    ServeFleet,
    ServiceClient,
    ServiceError,
    TenantQuotas,
    wire,
)
from repro.service.fleet import _worker_service
from repro.service.server import normalised
from repro.service.top import render_dashboard

from tests.service.conftest import GatedOperator, make_instance, make_spec
from tests.service.test_server import (
    REFERENCE_SCORES,
    RELATIONS,
    fresh_relations,
    naive_scores,
    refuse_rebuilds,
    running_server,
)

ROUNDED_REFERENCE = [round(s, 6) for s in REFERENCE_SCORES]

#: Two 200-row relations on 2 keys: 20 000 join results, so a top-12000
#: answer's ``done`` frame (every score) is far past ``wire.LINE_LIMIT``.
WIDE = make_instance(seed=0, n=200, num_keys=2)
WIDE_RELATIONS = {"left": WIDE.left, "right": WIDE.right}


@contextlib.contextmanager
def running_fleet(workers=2, relations=RELATIONS, **kwargs):
    kwargs.setdefault("service_kwargs", {"quantum": 16})
    with serving_fleet(ServeFleet(relations, workers=workers, port=0,
                                  **kwargs)) as fleet:
        yield fleet


@contextlib.contextmanager
def serving_fleet(fleet):
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
        # A block per session namespace: the front-end's own, then each
        # worker's.
        assert list(stats["workers"]) == ["fe", "w0", "w1"]
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

    def test_a_worker_frame_past_the_line_limit_is_relayed(self):
        """A top-12000 answer crosses the front-end whole: streamed, polled
        and — from the other worker — as a cache hit whose submit reply
        holds all of it.  At the parent the front-end read each worker
        line under the request line limit, and every one of these failed
        as ``worker N lost``."""
        k = 12000
        query = dict(left="left", right="right", k=k, algorithm="anyk")
        with running_fleet(workers=2, relations=WIDE_RELATIONS) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                sid = client.submit(worker=0, **query)
                events = list(client.stream(sid))
                polled = client.poll(sid)
                hit = client.run(worker=1, **query)
        done = events[-1]
        assert len(wire.encode(done)) > wire.LINE_LIMIT
        assert [e["index"] for e in events[:-1]] == list(range(k))
        assert done["state"] == polled["state"] == hit["state"] == "DONE"
        assert polled["scores"] == done["scores"] == hit["scores"]
        assert [e["score"] for e in events[:-1]] == done["scores"]
        assert hit["from_cache"] is True

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

    def test_a_front_end_throttle_counts_in_the_fleet_slo(self):
        """The merged ``slo.throttled_total`` counts the rejections the
        front-end made itself (at the parent: 0 beside ``{"alice": 1}``)."""
        quotas = TenantQuotas(rate=0.01, burst=1)
        with running_fleet(workers=2, quotas=quotas) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                client.submit(left="lineitem", right="orders", k=2,
                              tenant="alice")
                for _ in range(2):
                    with pytest.raises(ServiceError, match="quota"):
                        client.request({
                            "verb": "submit", "left": "lineitem",
                            "right": "orders", "k": 2, "tenant": "alice",
                        }, max_retries=0)
                stats = client.stats()
        assert stats["fleet"]["quotas"]["throttled"] == {"alice": 2}
        assert stats["slo"]["throttled_total"] == 2

    def test_a_service_level_quota_is_refused(self):
        """Admission is the front-end's: a worker's own quotas would never
        see a submit the front-end answers from its table."""
        with pytest.raises(ValueError, match="quotas="):
            ServeFleet(RELATIONS, port=0, service_kwargs={
                "quotas": TenantQuotas(rate=1.0, burst=1)})

    def test_a_stream_crosses_the_front_end_undecoded(self, monkeypatch):
        """Over one k=8 stream the front-end decodes the request and, once
        it is written, the ``done`` line the answer table learns from, but
        none of the eight result lines (it once decoded all nine)."""
        with running_fleet(workers=2) as fleet:
            with socket.create_connection((fleet.host, fleet.port),
                                          timeout=20.0) as sock, \
                    sock.makefile("rwb") as raw:
                raw.write(b'{"verb": "submit", "left": "lineitem", '
                          b'"right": "orders", "k": 8}\n')
                raw.flush()
                sid = json.loads(raw.readline())["session"]
                decoded = []
                real = wire.decode
                monkeypatch.setattr(  # the workers forked before this
                    wire, "decode", lambda line: decoded.append(line) or real(line)
                )
                request = json.dumps({"verb": "stream", "session": sid})
                raw.write(request.encode() + b"\n")
                raw.flush()
                lines = [raw.readline() for _ in range(9)]
                # One more exchange: the stream's handler has returned.
                raw.write(b'{"verb": "shutdown"}\n')
                raw.flush()
                raw.readline()
                monkeypatch.undo()
        events = [json.loads(line) for line in lines]
        assert decoded == [request.encode() + b"\n", lines[-1],
                           b'{"verb": "shutdown"}\n']
        assert [e["event"] for e in events] == ["result"] * 8 + ["done"]
        assert {e["session"] for e in events} == {sid}
        assert [e["score"] for e in events[:8]] == ROUNDED_REFERENCE[:8]
        assert events[-1]["scores"] == ROUNDED_REFERENCE[:8]

    def test_a_cache_hit_crosses_the_front_end_unencoded(self, monkeypatch):
        """Over one cache-hit submit the front-end encodes the request it
        sends upstream and nothing else: the reply, its ``events`` with it,
        crosses as the worker's bytes (at the parent: decoded, rewritten
        and encoded again)."""
        query = dict(left="lineitem", right="orders", k=8, worker=0)
        with running_fleet(workers=2) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                cold = client.run(**query)
            with socket.create_connection((fleet.host, fleet.port),
                                          timeout=20.0) as sock, \
                    sock.makefile("rwb") as raw:
                encoded = []
                real = wire.encode
                monkeypatch.setattr(  # the workers forked before this
                    wire, "encode",
                    lambda payload: encoded.append(payload) or real(payload),
                )
                raw.write(json.dumps({"verb": "submit", **query}).encode()
                          + b"\n")
                raw.flush()
                hit = json.loads(raw.readline())
                monkeypatch.undo()
        assert [payload.get("verb") for payload in encoded] == ["submit"]
        assert hit["from_cache"] is True and hit["session"].startswith("w0:")
        assert {e["session"] for e in hit["events"]} == {hit["session"]}
        assert [e["score"] for e in hit["events"][:-1]] == ROUNDED_REFERENCE[:8]
        assert hit["events"][-1]["scores"] == cold["scores"]

    def test_every_session_id_in_stats_is_addressable(self, monkeypatch):
        """A live session's brief in its worker's ``stats`` block carries
        the fleet id, and ``poll`` takes it.  At the parent that block
        carried the worker's own ``s1``: ``no session`` at the front-end."""
        # The workers fork with this patch: their sessions never finish.
        monkeypatch.setattr(QuerySpec, "build_operator",
                            lambda spec, *, obs=None: GatedOperator())
        with running_fleet(workers=2) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                sid = client.submit(left="lineitem", right="orders", k=3,
                                    worker=1)
                try:
                    stats = client.stats()
                    ids = [brief["session"]
                           for block in stats["workers"].values()
                           for brief in block["sessions"]]
                    states = [client.poll(wire_id)["state"] for wire_id in ids]
                finally:
                    assert client.cancel(sid) is True  # lets the fleet drain
        assert sid.startswith("w1:")
        assert ids == [sid] == [brief["session"] for brief in stats["sessions"]]
        assert states[0] not in wire.TERMINAL

    def test_a_client_that_hangs_up_leaves_nothing_outstanding(self):
        """Three clients each submit three queries, stream only the last
        and hang up.  At the parent the six unstreamed sessions stayed
        outstanding for the life of the fleet, steering placement."""
        with running_fleet(workers=2) as fleet:
            for client_index in range(3):
                with ServiceClient(fleet.host, fleet.port) as client:
                    sids = [
                        client.submit(  # distinct weights: no cache hits
                            left="lineitem", right="orders", k=5,
                            weights=[[1.0, 1.0 + 3 * client_index + j],
                                     [1.0, 1.0]],
                        )
                        for j in range(3)
                    ]
                    list(client.stream(sids[-1]))
            with ServiceClient(fleet.host, fleet.port) as client:
                deadline = time.monotonic() + 20.0
                while True:
                    stats = client.stats()
                    idle = not (stats["scheduler"]["live"]
                                or stats["scheduler"]["queued"])
                    settled = not any(stats["fleet"]["outstanding"].values())
                    if (idle and settled) or time.monotonic() > deadline:
                        break
                    time.sleep(0.05)
        assert idle
        assert stats["fleet"]["outstanding"] == {"w0": 0, "w1": 0}
        assert fleet._pending == {}


#: Fields that differ between two answers of one query: ids and clocks.
VARYING = {"session", "trace", "ts", "latency", "first_result_latency"}


def masked(value):
    if isinstance(value, dict):
        return {key: "<varies>" if key in VARYING else masked(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [masked(item) for item in value]
    return value


class FailingOperator:
    """A resumable operator whose first step raises: its session FAILS."""

    pulls = 0

    def try_next(self, max_pulls=None):
        raise RuntimeError("operator broke")

    def depths(self):
        return [0, 0]


class TestTheFrontEndAnswersRepeats:
    """The front-end keeps the answers it relays and answers an unpinned
    repeat itself, with an ``fe:`` session.  At the parent every repeat
    made the hop to a worker and back."""

    QUERY = dict(left="lineitem", right="orders", k=6)

    def test_its_reply_is_a_worker_hit_reply(self):
        """Field by field, but for ids and clocks: the reply, its events
        and their ``done`` snapshot, at the learned k and below it, of a
        plain query and of a weighted one repeated with integer weights."""
        weighted = dict(self.QUERY, operator="HRJN*",
                        weights=[[2.0, 1.0], [1.0, 0.5]])
        with running_fleet() as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                assert client.run(worker=0, **self.QUERY)["from_cache"] is False
                assert client.run(worker=0, **weighted)["from_cache"] is False
                pairs = [
                    [client.request({"verb": "submit", **query, "k": k,
                                     **pin}) for pin in ({"worker": 1}, {})]
                    for query in (self.QUERY,
                                  dict(weighted, weights=[[2, 1], [1, 0.5]]))
                    for k in (6, 4)
                ]
        for worker_hit, front_hit in pairs:
            assert worker_hit["session"].startswith("w1:")
            assert front_hit["session"].startswith("fe:")
            assert {e["session"] for e in front_hit["events"]} \
                == {front_hit["session"]}
            assert masked(front_hit) == masked(worker_hit)
        assert pairs[1][1]["events"][-1]["scores"] == ROUNDED_REFERENCE[:4]

    def test_fe_ids_answer_poll_stream_and_cancel(self):
        with running_fleet() as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                client.run(**self.QUERY)  # learned from the streamed done
                sid = client.submit(**self.QUERY)
                inline = list(client.stream(sid))
                polled = client.poll(sid)
                streamed = {cursor: list(client.stream_raw(sid, from_index=cursor))
                            for cursor in (0, 2, 6, 9)}
                cancelled = client.cancel(sid)
                refusals = []
                for ask in (client.poll, client.cancel,
                            lambda s: list(client.stream_raw(s))):
                    with pytest.raises(ServiceError) as refused:
                        ask("fe:s99")
                    refusals.append(str(refused.value))
        assert sid.startswith("fe:")
        assert polled == {k: v for k, v in inline[-1].items() if k != "event"}
        assert polled["from_cache"] is True and polled["pulls"] == 0
        assert streamed[0] == inline
        for cursor, events in streamed.items():
            assert [e.get("index") for e in events] \
                == [*range(cursor, 6), None]
            assert events[-1] == inline[-1]
        assert cancelled is False
        assert refusals == [str(wire.no_session("fe:s99")["error"])] * 3

    def test_a_cold_submit_costs_the_front_end_a_key_and_a_probe(
        self, monkeypatch
    ):
        """No fingerprint, and no decode but the request's and the reply's
        (which routing reads): the table is keyed by the request."""
        with running_fleet() as fleet:
            with socket.create_connection((fleet.host, fleet.port),
                                          timeout=20.0) as sock, \
                    sock.makefile("rwb") as raw:
                decoded = []
                real = wire.decode
                # The workers forked before these.
                monkeypatch.setattr(
                    wire, "decode", lambda line: decoded.append(line) or real(line))
                monkeypatch.setattr(Relation, "fingerprint", None)
                monkeypatch.setattr(QuerySpec, "fingerprint", None)
                request = b'{"verb": "submit", "left": "lineitem", ' \
                          b'"right": "orders", "k": 3}\n'
                raw.write(request)
                raw.flush()
                reply = raw.readline()
                monkeypatch.undo()
        assert json.loads(reply)["session"].startswith("w")
        assert decoded == [request, reply]

    def test_a_pinned_submit_always_reaches_its_worker(self):
        with running_fleet() as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                client.run(**self.QUERY)
                replies = [client.request({"verb": "submit", "worker": w,
                                           **self.QUERY}) for w in (0, 1, 0, 1)]
        assert [r["session"].split(":")[0] for r in replies] \
            == ["w0", "w1", "w0", "w1"]
        assert all(r["from_cache"] for r in replies)

    def test_a_budget_exhausted_answer_is_served_up_to_its_length(self):
        query = dict(left="lineitem", right="orders")
        with running_fleet() as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                partial = client.run(k=8, max_pulls=40, **query)
                short = client.request({"verb": "submit", "k": 3, **query})
                longer = client.request({"verb": "submit", "k": 4, **query})
                final = client.wait(longer["session"])
        assert partial["budget_exhausted"] and not partial["complete"]
        assert partial["scores"] == ROUNDED_REFERENCE[:3]
        assert short["session"].startswith("fe:")
        assert short["events"][-1]["scores"] == ROUNDED_REFERENCE[:3]
        assert short["events"][-1]["complete"] is True
        assert longer["session"].startswith("w")
        assert final["from_cache"] is False
        assert final["scores"] == ROUNDED_REFERENCE[:4]

    def test_a_failed_or_cancelled_answer_is_never_served(self, monkeypatch):
        # The workers fork with this patch: k=5 fails, any other k hangs.
        monkeypatch.setattr(
            QuerySpec, "build_operator",
            lambda spec, *, obs=None:
                FailingOperator() if spec.k == 5 else GatedOperator())
        with running_fleet() as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                failed = [client.run(left="lineitem", right="orders", k=5)
                          for _ in range(2)]
                query = dict(left="lineitem", right="orders", k=3)
                sid = client.submit(**query)
                assert client.cancel(sid) is True
                cancelled = client.wait(sid)
                again = client.submit(**query)
                assert client.cancel(again) is True
        assert [f["state"] for f in failed] == ["FAILED", "FAILED"]
        assert all(f["session"].startswith("w") for f in failed)
        assert cancelled["state"] == "CANCELLED"
        assert again.startswith("w")

    def test_only_a_done_answer_without_error_is_kept(self):
        """The rule the table learns by, frame by frame, on a fleet never
        run."""
        fleet = ServeFleet(RELATIONS, workers=2, port=0)
        table = fleet.answers.cache
        done = dict(state="DONE", error=None, scores=[0.9, 0.8], k=2,
                    complete=True)
        for frame in (dict(done, state="FAILED"), dict(done, state="CANCELLED"),
                      dict(done, error="RuntimeError: x")):
            fleet._learn("refused", frame)
            assert table.lookup("refused", 1) is None
        fleet._learn("prefix", done)  # k scores: a prefix
        fleet._learn("whole", dict(done, k=5))  # fewer than k: the join
        fleet._learn("partial", dict(done, k=5, complete=False))  # budget
        assert [r.score for r in table.lookup("prefix", 2)] == [0.9, 0.8]
        assert table.lookup("prefix", 3) is None
        assert [r.score for r in table.lookup("whole", 9)] == [0.9, 0.8]
        assert table.lookup("partial", 3) is None
        assert [r.score for r in table.lookup("partial", 2)] == [0.9, 0.8]

    def test_a_zero_capacity_front_end_never_answers(self):
        with running_fleet(service_kwargs={"quantum": 16,
                                           "cache_capacity": 0}) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                finals = [client.run(**self.QUERY) for _ in range(3)]
        assert fleet.answers.cache is None
        assert [f["session"][0] for f in finals] == ["w"] * 3
        assert not any(f["from_cache"] for f in finals)

    def test_cache_ttl_expires_an_answer(self, monkeypatch):
        fleet = ServeFleet(RELATIONS, workers=2, port=0,
                           service_kwargs={"quantum": 16, "cache_ttl": 60.0})
        now = [0.0]
        monkeypatch.setattr(fleet.answers.cache, "_clock", lambda: now[0])
        with serving_fleet(fleet):
            with ServiceClient(fleet.host, fleet.port) as client:
                client.run(**self.QUERY)
                # The table learns after it writes the done line; this
                # connection's next request is read once it has: at 0 s.
                client.stats()
                ids = []
                for clock in (59.0, 61.0, 62.0):
                    now[0] = clock
                    ids.append(client.submit(**self.QUERY))
        # At 61 s the answer has expired: a worker's hit answers, and the
        # table learns it again from that reply.
        assert [i[:2] for i in ids] == ["fe", ids[1][:2], "fe"]
        assert ids[1][0] == "w"

    def test_a_front_end_answer_counts_in_stats_top_and_metrics(self):
        with running_fleet() as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                client.run(**self.QUERY)
                before = client.stats()
                hit = client.run(**self.QUERY)
                after = client.stats()
                metrics = client.metrics()
        assert hit["session"].startswith("fe:")
        # One lookup per submit: the cold one missed in the table and on
        # a worker, and counts once.
        assert (before["cache"]["hits"], before["cache"]["misses"]) == (0, 1)
        assert after["cache"]["hits"] == before["cache"]["hits"] + 1
        assert after["cache"]["misses"] == before["cache"]["misses"]
        assert after["slo"]["cache_hit_ratio"] == after["cache"]["hit_rate"] \
            == 0.5
        assert f"slo_cache_hit_ratio {after['slo']['cache_hit_ratio']}" \
            in metrics.splitlines()
        assert after["workers"]["fe"]["scheduler"]["finished"] == {"DONE": 1}
        # One entry on the worker that computed it, one in the front-end.
        assert before["cache"]["entries"] == after["cache"]["entries"] == 2
        assert after["scheduler"]["finished"]["DONE"] \
            == before["scheduler"]["finished"]["DONE"] + 1
        assert after["slo"]["cache_hit_ratio"] \
            > (before["slo"]["cache_hit_ratio"] or 0.0)
        assert f"hits={after['cache']['hits']}" in render_dashboard(after)
        assert "service_cache_hits_total 1" in metrics
        # Only the cold submit was routed to a worker.
        routed = [line for line in metrics.splitlines()
                  if line.startswith("fleet_routed_total{")]
        assert sum(float(line.split()[-1]) for line in routed) == 1


class TestTheAnswerKey:
    """The front-end keys an answer by :func:`server.normalised`, the
    function a worker's server reads the request by, so a submit field
    that changes the answer changes the key."""

    #: Submit fields that cannot change an answer served from a cache:
    #: a worker's hit ignores them too.
    NEUTRAL = {"k", "shards", "backend", "priority", "max_pulls", "deadline",
               "tenant", "trace", "worker"}
    #: Each other field, with a value that asks another query.
    OTHER = {"left": "orders", "right": "lineitem",
             "relations": ["lineitem", "orders", "orders"],
             "join_attrs": ["@key", "@key"], "operator": "HRJN*",
             "algorithm": "anyk", "weights": [[1.0, 2.0], [1.0, 1.0]]}

    def test_every_submit_field_is_in_the_key_or_neutral(self):
        fields = {field.name for field in wire.VERBS["submit"].fields}
        assert fields == self.NEUTRAL | set(self.OTHER)
        base = wire.validate({"verb": "submit", "k": 3,
                              "left": "lineitem", "right": "orders"})[1]
        key = normalised(base, "pbrj")
        for name, value in self.OTHER.items():
            assert normalised(dict(base, **{name: value}), "pbrj") != key, name
        for name, value in dict(k=4, max_pulls=1, deadline=0.0, priority=2,
                                tenant="t", trace={}, worker=1).items():
            assert normalised(dict(base, **{name: value}), "pbrj") == key, name

    def test_the_fleet_keys_as_its_workers_default(self):
        fleet = ServeFleet(RELATIONS, port=0,
                           server_kwargs={"default_algorithm": "anyk"})
        request = {"k": 3, "left": "lineitem", "right": "orders",
                   "operator": "FRPA"}
        assert fleet._answer_key(request).algorithm == "anyk"
        assert fleet._answer_key(dict(request, algorithm="auto")) is None
        assert fleet._answer_key({"k": 3, "operator": "FRPA"}) is None


class TestTheSharedCacheDir:
    def test_a_fleet_never_run_or_refused_leaves_no_directory(
        self, tmp_path, monkeypatch
    ):
        """At the parent a constructed fleet made ``repro-fleet-cache-*``
        and only ``run()`` removed it."""
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        ServeFleet(RELATIONS, workers=2, port=0)
        for refused in (dict(workers=0),
                        dict(service_kwargs={"cache_ttl": -1.0})):
            with pytest.raises(ValueError):
                ServeFleet(RELATIONS, port=0, **refused)
        with pytest.raises(InstanceError):
            ServeFleet({"bad": Relation("bad", [RankTuple(1, (2.0, 0.5))])},
                       port=0)
        assert list(tmp_path.iterdir()) == []

    def test_a_fleet_that_ran_removes_its_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        with running_fleet() as fleet:
            made = fleet.shared_cache_dir
            assert made.startswith(str(tmp_path))
            assert [p.name for p in tmp_path.iterdir()] \
                == [made.rsplit("/", 1)[-1]]
        assert list(tmp_path.iterdir()) == []


class TestViewsAreBuiltBeforeTheWorkersFork:
    """The fleet builds every served relation's fingerprint, score matrix
    and tuple-key codes when it is constructed, and its workers fork with
    them.  These guards rely on the fleet forking, the default start method
    on Linux before Python 3.14; under ``spawn`` a worker unpickles the
    views and never sees the patched builders."""

    def test_no_worker_rebuilds_a_view(self, monkeypatch):
        """A cold query pinned to each worker ends DONE without building a
        view.  At the parent each worker's first query computed the
        fingerprint, and its connection died."""
        relations = fresh_relations()
        fleet = ServeFleet(relations, workers=2, port=0,
                           service_kwargs={"quantum": 16})
        refuse_rebuilds(monkeypatch)
        weights = [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 1.0]]  # no shared hit
        with serving_fleet(fleet):
            with ServiceClient(fleet.host, fleet.port) as client:
                finals = [client.run(left="lineitem", right="orders", k=5,
                                     weights=[w[:2], w[2:]], worker=worker)
                          for worker, w in enumerate(weights)]
        assert [f["session"].split(":")[0] for f in finals] == ["w0", "w1"]
        assert [f["state"] for f in finals] == ["DONE", "DONE"]
        assert not any(f["from_cache"] for f in finals)
        assert [f["scores"] for f in finals] == [
            naive_scores(relations, 5, WeightedSum(w)) for w in weights]

    def test_an_unservable_relation_is_refused_before_any_worker(self):
        """A score outside [0, 1] is the one-line error a worker's first
        query used to raise, and no worker process starts."""
        bad = {**fresh_relations(),
               "bad": Relation("bad", [RankTuple(1, (-0.25, 0.5))])}
        with pytest.raises(InstanceError) as refused:
            ServeFleet(bad, workers=2, port=0)
        assert str(refused.value) == (
            "relation 'bad': score -0.25 outside [0, 1] at row 0, column 0")
        assert multiprocessing.active_children() == []


class TestWorkerService:
    """The service a worker runs, built without forking one.  At the parent
    the worker's cache counted hits on a registry of its own, so every
    worker reported ``cache_hit_ratio: null``, and a fleet refused
    ``cache_capacity=0`` that a single server took."""

    def test_a_worker_counts_its_cache_where_its_slos_read(self, tmp_path):
        service = _worker_service({"quantum": 16}, str(tmp_path))
        spec = make_spec(k=5)
        assert service.run_query(spec) == service.run_query(spec)
        assert service.stats()["cache"]["hits"] == 1
        assert service.stats()["slo"]["cache_hit_ratio"] == 0.5
        assert "service_cache_hits_total" in service.metrics_text()

    def test_a_zero_capacity_fleet_has_no_cache(self, tmp_path):
        fleet = ServeFleet(RELATIONS, workers=2, port=0,
                           shared_cache_dir=str(tmp_path),
                           service_kwargs={"cache_capacity": 0})
        assert _worker_service(fleet.service_kwargs, str(tmp_path)).cache is None


class TestReadYourWrites:
    """A client that has a worker's ``done`` frame may submit the same
    query anywhere in the fleet and hit the cache: the worker's write to
    the shared tier comes before that frame.  Checked as an order inside
    one server, not a race between two workers, which passes whenever the
    write is late by less than the next request takes to arrive."""

    def test_the_shared_tier_write_precedes_the_done_frame(
        self, tmp_path, monkeypatch
    ):
        published = []  # the shared tier's records as each done frame goes out
        real_send = wire.Connection.send

        async def send(conn, payload):
            if payload.get("event") == "done":
                published.append(sorted(p.name for p in tmp_path.iterdir()))
            await real_send(conn, payload)

        monkeypatch.setattr(wire.Connection, "send", send)
        service = _worker_service({"quantum": 16}, str(tmp_path))
        with running_server(service) as server:
            with ServiceClient(server.host, server.port) as client:
                final = client.run(left="lineitem", right="orders", k=5)
        assert final["from_cache"] is False
        key = service.session(final["session"]).cache_key
        assert published == [[f"{key}.pkl"]]
