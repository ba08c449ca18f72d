"""Metric registry: counters, gauges, and fixed-bucket histograms.

Metrics are identified by name plus a set of string labels, e.g.
``registry.counter("pulls_total", side="left")``.  Handles are resolved
once (typically at operator construction) and then updated with plain
attribute mutations, so the hot-path cost of a metric update is one method
call.  A disabled registry hands out a shared no-op metric, letting
instrumented code run unconditionally.

Histogram buckets are fixed upper boundaries (Prometheus-style ``le``
semantics with a final overflow bucket), chosen per metric at first
registration.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default histogram boundaries: sizes of covers/skylines/heaps are small
#: integers that grow multiplicatively, so powers-of-two-ish edges.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value plus its running maximum."""

    __slots__ = ("value", "max")
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float | None = None
        self.max: float | None = None

    def set(self, value: float) -> None:
        self.value = value
        if self.max is None or value > self.max:
            self.max = value


class Histogram:
    """Fixed-boundary histogram with count/sum, cheap to update."""

    __slots__ = ("boundaries", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, boundaries: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)  # last is overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def bucket_pairs(self) -> list[tuple[float | None, int]]:
        """``(upper_bound, count)`` pairs; ``None`` bound = overflow."""
        bounds: list[float | None] = list(self.boundaries)
        bounds.append(None)
        return list(zip(bounds, self.counts))

    def percentile(self, q: float) -> float | None:
        """The ``q``-quantile estimated by linear interpolation in-bucket.

        Prometheus ``histogram_quantile`` semantics: observations are
        assumed uniform within their bucket, the first bucket
        interpolates from 0, and any quantile landing in the overflow
        bucket clamps to the largest finite boundary (the estimate
        cannot exceed what the buckets resolve).  Returns ``None`` on an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.boundaries, self.counts):
            if bucket_count and cumulative + bucket_count >= rank:
                fraction = (rank - cumulative) / bucket_count
                return lower + (bound - lower) * fraction
            cumulative += bucket_count
            lower = bound
        return float(self.boundaries[-1])


class _NullMetric:
    """Accepts every update and records nothing (disabled registry)."""

    __slots__ = ()
    kind = "null"
    value = 0
    max = None
    sum = 0.0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricRegistry:
    """Registry of labelled counters, gauges, and histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[tuple[str, str, LabelKey], object] = {}
        # The same metrics by labels in call order: no sort on a repeat lookup.
        self._handles: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Handle resolution
    # ------------------------------------------------------------------
    def _resolve(self, kind: str, name: str, factory, labels: dict) -> object:
        if not self.enabled:
            return NULL_METRIC
        handle = (kind, name, *labels.items())
        metric = self._handles.get(handle)
        if metric is None:
            metric = self._handles[handle] = self._metrics.setdefault(
                (kind, name, _label_key(labels)), factory())
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._resolve("counter", name, Counter, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._resolve("gauge", name, Gauge, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._resolve("histogram", name, lambda: Histogram(buckets), labels)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: str):
        """Current value of a counter/gauge (None if never registered)."""
        for kind in ("counter", "gauge"):
            metric = self._metrics.get((kind, name, _label_key(labels)))
            if metric is not None:
                return metric.value
        return None

    def snapshot(self) -> list[dict]:
        """All metrics as plain dict records (JSONL/export friendly)."""
        records = []
        for (kind, name, labels), metric in sorted(self._metrics.items()):
            record: dict = {"type": "metric", "kind": kind, "name": name,
                            "labels": dict(labels)}
            if kind == "counter":
                record["value"] = metric.value
            elif kind == "gauge":
                record["value"] = metric.value
                record["max"] = metric.max
            else:
                record["sum"] = metric.sum
                record["count"] = metric.count
                record["buckets"] = [
                    {"le": bound, "count": count}
                    for bound, count in metric.bucket_pairs()
                ]
            records.append(record)
        return records

    def metrics_named(self, name: str, kind: str | None = None):
        """``(kind, labels, metric)`` triples for one metric name."""
        out = []
        for (metric_kind, metric_name, label_key), metric in sorted(
            self._metrics.items()
        ):
            if metric_name != name:
                continue
            if kind is not None and metric_kind != kind:
                continue
            out.append((metric_kind, dict(label_key), metric))
        return out

    def reset(self) -> None:
        self._metrics.clear()
        self._handles.clear()
