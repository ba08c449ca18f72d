"""End-to-end distributed-trace reconstruction from a single JSONL stream.

The tentpole acceptance test: a sharded query served through the full
stack (client -> server -> scheduler -> sharded engine -> shard workers)
must leave behind one *connected* trace tree — every span, worker quanta
included, parents transitively back to the single request root span
minted by the client.
"""

import contextlib
import threading

from repro.obs import JsonlExporter, Observability, TraceTree, read_events
from repro.service import (
    QueryService,
    RankJoinServer,
    ServiceClient,
    ServiceError,
)

from tests.service.conftest import make_instance

INSTANCE = make_instance(seed=0, n=200, num_keys=20, k=20)
RELATIONS = {"lineitem": INSTANCE.left, "orders": INSTANCE.right}


@contextlib.contextmanager
def traced_server(tmp_path):
    """A live server whose observability pipeline writes to a JSONL file."""
    path = tmp_path / "events.jsonl"
    obs = Observability(enabled=True, exporters=[JsonlExporter(path)])
    service = QueryService(quantum=16, obs=obs)
    server = RankJoinServer(service, RELATIONS, port=0)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(timeout=10.0), "server never became ready"
    try:
        yield server, path
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError, ConnectionError, ServiceError):
                with ServiceClient(server.host, server.port) as client:
                    client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "server thread failed to shut down"
        obs.close()


def _span_names(tree: TraceTree, trace_id: str) -> set:
    return {r["name"] for r in tree.spans_of(trace_id)}


class TestServerTraceTree:
    def test_sharded_query_yields_one_connected_tree(self, tmp_path):
        with traced_server(tmp_path) as (server, path):
            with ServiceClient(server.host, server.port) as client:
                final = client.run(
                    left="lineitem", right="orders", k=10, shards=4,
                )
                trace_id = client.last_trace
        assert final["state"] == "DONE"

        tree = TraceTree.from_events(read_events(path))
        # One request => one trace, rooted at the client's submission.
        assert tree.trace_ids() == [trace_id]
        assert tree.connected(trace_id), tree.orphans(trace_id)
        (root,) = tree.roots(trace_id)
        assert root["name"] == "request"

        names = _span_names(tree, trace_id)
        assert {"request", "session", "exec", "shard", "quantum"} <= names

        # Every worker quantum chains back to the request root through its
        # shard and exec spans.
        quanta = tree.named("quantum", trace_id=trace_id)
        assert len(quanta) >= 4
        for quantum in quanta:
            chain = [r["name"] for r in tree.path_to_root(quantum["span"])]
            assert chain[0] == "quantum"
            assert chain[-1] == "request"
            assert "shard" in chain and "exec" in chain

        # Quanta are attributed per shard, and none is a replay.
        assert not any("replay" in q for q in quanta)
        shards_seen = {q["shard"] for q in quanta}
        assert shards_seen == {0, 1, 2, 3}

    def test_two_requests_yield_two_disjoint_trees(self, tmp_path):
        with traced_server(tmp_path) as (server, path):
            traces = []
            with ServiceClient(server.host, server.port) as client:
                for k in (5, 7):
                    client.run(
                        left="lineitem", right="orders", k=k,
                        shards=2, backend="serial",
                    )
                    traces.append(client.last_trace)
        tree = TraceTree.from_events(read_events(path))
        assert set(tree.trace_ids()) == set(traces)
        for trace_id in traces:
            assert tree.connected(trace_id), tree.orphans(trace_id)
