"""End-to-end distributed-trace reconstruction from a single JSONL stream.

A query served through the full stack (client -> server -> scheduler ->
operator) must leave behind one *connected* trace tree per request —
every span parents transitively back to the single request root span
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
    def test_two_requests_yield_two_disjoint_trees(self, tmp_path):
        with traced_server(tmp_path) as (server, path):
            traces = []
            with ServiceClient(server.host, server.port) as client:
                for k in (5, 7):
                    client.run(left="lineitem", right="orders", k=k)
                    traces.append(client.last_trace)
        tree = TraceTree.from_events(read_events(path))
        assert set(tree.trace_ids()) == set(traces)
        for trace_id in traces:
            assert tree.connected(trace_id), tree.orphans(trace_id)
            (root,) = tree.roots(trace_id)
            assert root["name"] == "request"
            assert _span_names(tree, trace_id) == {"request", "session"}
