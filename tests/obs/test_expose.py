"""Tests for Prometheus text exposition and the computed SLO gauges."""

from repro.obs import (
    MetricRegistry,
    compute_slos,
    render_prometheus,
    set_slo_gauges,
)


def _registry() -> MetricRegistry:
    return MetricRegistry(enabled=True)


class TestRenderPrometheus:
    def test_counter_lines(self):
        registry = _registry()
        registry.counter("service_pulls_total", shard="0").inc(7)
        text = render_prometheus(registry)
        assert "# TYPE service_pulls_total counter" in text
        assert 'service_pulls_total{shard="0"} 7' in text

    def test_gauge_lines_and_none_skipped(self):
        registry = _registry()
        registry.gauge("service_queue_depth").set(3)
        registry.gauge("service_unset")
        text = render_prometheus(registry)
        assert "# TYPE service_queue_depth gauge" in text
        assert "service_queue_depth 3" in text
        # An unset gauge keeps its TYPE header but emits no sample line.
        assert "\nservice_unset " not in text

    def test_histogram_cumulative_buckets(self):
        registry = _registry()
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = render_prometheus(registry)
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        # Cumulative: the le="1.0" bucket includes the 0.05 observation.
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_count 3" in text
        assert "latency_seconds_sum 5.55" in text

    def test_type_line_emitted_once_per_name(self):
        registry = _registry()
        registry.counter("pulls_total", shard="0").inc()
        registry.counter("pulls_total", shard="1").inc()
        text = render_prometheus(registry)
        assert text.count("# TYPE pulls_total counter") == 1

    def test_label_escaping(self):
        registry = _registry()
        registry.counter("odd_total", label='a"b\\c').inc()
        assert '{label="a\\"b\\\\c"}' in render_prometheus(registry)

    def test_ends_with_newline(self):
        registry = _registry()
        registry.counter("x_total").inc()
        assert render_prometheus(registry).endswith("\n")


class TestComputeSlos:
    def test_empty_registry(self):
        slos = compute_slos(_registry())
        assert slos["session_seconds"] == {"p50": None, "p95": None, "p99": None}
        assert slos["sessions_finished"] == 0
        assert slos["cache_hit_ratio"] is None
        assert "shard_imbalance_max" not in slos

    def test_percentiles_from_session_histogram(self):
        registry = _registry()
        histogram = registry.histogram(
            "service_session_seconds", buckets=(0.1, 1.0), policy="round-robin"
        )
        for _ in range(100):
            histogram.observe(0.05)
        slos = compute_slos(registry)
        assert slos["sessions_finished"] == 100
        assert 0.0 < slos["session_seconds"]["p50"] <= 0.1
        assert 0.0 < slos["session_seconds"]["p99"] <= 0.1

    def test_cache_hit_ratio(self):
        registry = _registry()
        registry.counter("service_cache_hits_total").inc(3)
        registry.counter("service_cache_misses_total").inc(1)
        assert compute_slos(registry)["cache_hit_ratio"] == 0.75

    def test_queue_depth_gauge(self):
        registry = _registry()
        registry.gauge("service_queue_depth").set(4)
        assert compute_slos(registry)["queue_depth"] == 4


class TestSetSloGauges:
    def test_publishes_gauges(self):
        registry = _registry()
        registry.histogram("service_session_seconds", buckets=(1.0,)).observe(0.5)
        registry.counter("service_cache_hits_total").inc()
        registry.counter("service_cache_misses_total").inc()
        slos = set_slo_gauges(registry)
        text = render_prometheus(registry)
        assert 'slo_session_seconds{quantile="0.5"}' in text
        assert 'slo_session_seconds{quantile="0.99"}' in text
        assert "slo_cache_hit_ratio 0.5" in text
        assert slos["cache_hit_ratio"] == 0.5
