"""A shard worker records its quanta straight into the engine's pipeline."""

from repro.data.workload import random_instance
from repro.exec import ShardWorker
from repro.obs import JsonlExporter, Observability, TraceContext, read_events

INSTANCE = random_instance(
    n_left=80, n_right=80, e_left=2, e_right=2, num_keys=8, k=5, seed=7
)


class TestWorkerTelemetry:
    def test_record_quantum_updates_counters(self):
        obs = Observability(enabled=True)
        worker = ShardWorker(0, INSTANCE, "FRPA", obs=obs,
                             trace=TraceContext.root().child())
        first = worker.advance(16)
        second = worker.advance(16)
        value = obs.metrics.value
        assert value("worker_pulls_total", shard="0") \
            == first.pulls + second.pulls == worker.pulls > 0
        assert value("worker_results_total", shard="0") \
            == len(first.results) + len(second.results)
        assert value("worker_quanta_total", shard="0") == 2
        (_, _, histogram), = obs.metrics.metrics_named("worker_quantum_pulls")
        assert histogram.count == 2 and histogram.sum == worker.pulls

    def test_trace_records_parent_to_context(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = Observability(enabled=True, exporters=[JsonlExporter(path)])
        ctx = TraceContext.root().child()
        worker = ShardWorker(2, INSTANCE, "FRPA", obs=obs, trace=ctx)
        outcome = worker.advance(4)
        obs.close()
        (record,) = [e for e in read_events(path) if e.get("name") == "quantum"]
        assert record["trace"] == ctx.trace_id
        assert record["parent"] == ctx.span_id
        assert record["shard"] == 2 and record["quantum"] == 4
        assert record["pulls"] == outcome.pulls
        assert record["results"] == len(outcome.results)
        assert "replay" not in record

    def test_workers_share_a_registry_under_shard_labels(self):
        obs = Observability(enabled=True)
        for shard in (0, 1):
            ShardWorker(shard, INSTANCE, "FRPA", obs=obs,
                        trace=TraceContext.root().child()).advance(16)
        registry = obs.metrics
        assert registry.counter("worker_pulls_total", shard="0").value == 16
        assert registry.counter("worker_pulls_total", shard="1").value == 16

    def test_untraced_worker_records_nothing(self):
        obs = Observability(enabled=True)
        ShardWorker(0, INSTANCE, "FRPA", obs=obs).advance(16)
        assert obs.metrics.snapshot() == []
