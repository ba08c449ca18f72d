"""Tests for the metric registry: counters, gauges, histogram bucketing."""

from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    Histogram,
    MetricRegistry,
)


class TestCounter:
    def test_inc(self):
        registry = MetricRegistry()
        counter = registry.counter("pulls_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labels_separate_series(self):
        registry = MetricRegistry()
        registry.counter("pulls_total", side="left").inc(3)
        registry.counter("pulls_total", side="right").inc(1)
        assert registry.value("pulls_total", side="left") == 3
        assert registry.value("pulls_total", side="right") == 1

    def test_same_labels_share_handle(self):
        registry = MetricRegistry()
        a = registry.counter("x", op="FRPA")
        b = registry.counter("x", op="FRPA")
        assert a is b

    def test_label_order_irrelevant(self):
        registry = MetricRegistry()
        a = registry.counter("x", op="A", side="left")
        b = registry.counter("x", side="left", op="A")
        assert a is b


class TestGauge:
    def test_set_tracks_last_and_max(self):
        registry = MetricRegistry()
        gauge = registry.gauge("heap")
        gauge.set(5)
        gauge.set(12)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max == 12


class TestHistogram:
    def test_bucketing_le_semantics(self):
        hist = Histogram(boundaries=(1, 10, 100))
        for value in (0, 1, 5, 10, 11, 1000):
            hist.observe(value)
        # counts: <=1, <=10, <=100, overflow
        assert hist.counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.sum == 1027

    def test_bucket_pairs_include_overflow(self):
        hist = Histogram(boundaries=(1, 2))
        hist.observe(99)
        pairs = hist.bucket_pairs()
        assert pairs[-1] == (None, 1)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=(10, 1))

    def test_registry_histogram(self):
        registry = MetricRegistry()
        hist = registry.histogram("cover_size", buckets=(2, 4), side="left")
        hist.observe(3)
        assert hist.counts == [0, 1, 0]

    @given(
        start=st.floats(0, 1e6),
        values=st.lists(st.one_of(
            st.integers(-50, 5000), st.floats(0, 5000), st.sampled_from([1, 2.0, 64]),
            st.integers(2 ** 52, 2 ** 53)),
            max_size=60),
        read_at=st.integers(0, 60),
        repeat=st.sampled_from([1, 80]),
    )
    def test_bulk_update_is_the_observe_loop(self, start, values, read_at, repeat):
        """``observe_many`` — what an operator publishes once per step —
        leaves the per-value loop's counts, and its ``sum`` / ``count``
        bits, whenever it is read (a long queue folds unread)."""
        values = values * repeat
        hist = Histogram()
        hist.observe(start)
        hist.observe_many(values[:read_at])
        assert hist.count == 1 + len(values[:read_at])  # a read folds the queue
        hist.observe_many(values[read_at:])
        counts, total = [0] * (len(DEFAULT_BUCKETS) + 1), 0.0
        for value in [start, *values]:
            counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
            total += value
        assert hist.counts == counts
        assert hist.count == 1 + len(values)
        assert hist.sum.hex() == total.hex()

class TestDisabledRegistry:
    def test_returns_null_metric(self):
        registry = MetricRegistry(enabled=False)
        assert registry.counter("x") is NULL_METRIC
        assert registry.gauge("y") is NULL_METRIC
        assert registry.histogram("z") is NULL_METRIC

    def test_null_metric_accepts_updates(self):
        NULL_METRIC.inc()
        NULL_METRIC.set(3)
        NULL_METRIC.observe(1.5)
        NULL_METRIC.observe_many([1, 2])
        assert NULL_METRIC.value == 0

    def test_disabled_registry_snapshot_empty(self):
        registry = MetricRegistry(enabled=False)
        registry.counter("x").inc()
        assert registry.snapshot() == []


class TestSnapshot:
    def test_snapshot_records(self):
        registry = MetricRegistry()
        registry.counter("pulls_total", side="left").inc(2)
        registry.gauge("heap").set(7)
        registry.histogram("sizes", buckets=(1, 2)).observe(2)
        records = {r["name"]: r for r in registry.snapshot()}
        assert records["pulls_total"]["value"] == 2
        assert records["pulls_total"]["labels"] == {"side": "left"}
        assert records["heap"]["value"] == 7
        assert records["sizes"]["count"] == 1
        assert records["sizes"]["buckets"][1] == {"le": 2, "count": 1}


class TestHistogramPercentile:
    def _histogram(self) -> Histogram:
        registry = MetricRegistry()
        return registry.histogram("latency", buckets=(0.1, 1.0, 10.0))

    def test_empty_returns_none(self):
        assert self._histogram().percentile(0.5) is None

    def test_out_of_range_raises(self):
        histogram = self._histogram()
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)
        with pytest.raises(ValueError):
            histogram.percentile(1.1)

    def test_single_observation_interpolates_within_bucket(self):
        histogram = self._histogram()
        histogram.observe(0.5)
        # One observation in (0.1, 1.0]; p50 lands halfway through it.
        value = histogram.percentile(0.5)
        assert 0.1 < value <= 1.0

    def test_q1_is_bucket_upper_bound(self):
        histogram = self._histogram()
        histogram.observe(0.05)
        histogram.observe(0.05)
        assert histogram.percentile(1.0) == pytest.approx(0.1)

    def test_uniform_fill_linear(self):
        histogram = self._histogram()
        for _ in range(10):
            histogram.observe(0.05)
        # All mass in [0, 0.1]; linear interpolation: p50 = 0.05.
        assert histogram.percentile(0.5) == pytest.approx(0.05)
        assert histogram.percentile(0.1) == pytest.approx(0.01)

    def test_boundary_between_buckets(self):
        histogram = self._histogram()
        histogram.observe(0.05)  # bucket (0, 0.1]
        histogram.observe(5.0)   # bucket (1.0, 10.0]
        # p50 exactly exhausts the first bucket.
        assert histogram.percentile(0.5) == pytest.approx(0.1)

    def test_overflow_clamps_to_last_boundary(self):
        histogram = self._histogram()
        histogram.observe(100.0)
        assert histogram.percentile(0.99) == pytest.approx(10.0)
