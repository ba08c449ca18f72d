"""Live metric exposition: Prometheus text format and computed SLO gauges.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.
MetricRegistry` into the Prometheus text exposition format (``# TYPE``
lines, cumulative ``_bucket{le=...}`` histogram series, ``_sum`` and
``_count``).  :func:`compute_slos` derives the serving-level objectives
the ROADMAP's streaming item needs — p50/p95/p99 session latency, queue
depth, cache hit ratio — from metrics the service layer already records,
and :func:`set_slo_gauges` writes them
back into the registry as ``slo_*`` gauges so they appear in the same
scrape.

Everything here is read-only over registry internals plus gauge writes;
nothing touches the operator hot path.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricRegistry

#: The percentiles exposed as ``slo_session_seconds{quantile=...}``.
SLO_QUANTILES = (0.5, 0.95, 0.99)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _label_text(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Metrics are grouped by name with one ``# TYPE`` header each;
    histograms expand to cumulative ``le`` buckets (including ``+Inf``)
    plus ``_sum``/``_count``.  Gauges never set are skipped — an unset
    gauge has no meaningful sample value.
    """
    by_name: dict[str, list[tuple[str, dict, object]]] = {}
    for (kind, name, label_key), metric in sorted(registry._metrics.items()):
        by_name.setdefault(name, []).append((kind, dict(label_key), metric))

    lines: list[str] = []
    for name, entries in sorted(by_name.items()):
        kind = entries[0][0]
        lines.append(f"# TYPE {name} {kind}")
        for _, labels, metric in entries:
            if kind == "counter":
                lines.append(f"{name}{_label_text(labels)} {metric.value}")
            elif kind == "gauge":
                if metric.value is None:
                    continue
                lines.append(
                    f"{name}{_label_text(labels)} {_format_value(metric.value)}"
                )
            else:  # histogram
                cumulative = 0
                for bound, count in metric.bucket_pairs():
                    cumulative += count
                    le = "+Inf" if bound is None else _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_label_text(labels, {'le': le})} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_text(labels)} "
                    f"{_format_value(float(metric.sum))}"
                )
                lines.append(f"{name}_count{_label_text(labels)} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# SLO derivation
# ----------------------------------------------------------------------
def _merged_histogram(registry: MetricRegistry, name: str) -> Histogram | None:
    """All label sets of one histogram merged into a single distribution."""
    merged: Histogram | None = None
    for _, _, metric in registry.metrics_named(name, kind="histogram"):
        if merged is None:
            merged = Histogram(metric.boundaries)
        if metric.boundaries != merged.boundaries:  # pragma: no cover
            continue  # defensively skip incompatible bucket layouts
        for index, count in enumerate(metric.counts):
            merged.counts[index] += count
        merged.sum += metric.sum
        merged.count += metric.count
    return merged


def compute_slos(registry: MetricRegistry) -> dict:
    """Serving-level objectives derived from the live registry.

    Returns a plain dict (JSON-friendly; absent signals are ``None``)::

        {"session_seconds": {"p50": ..., "p95": ..., "p99": ...},
         "first_result_seconds": {"p50": ..., "p95": ..., "p99": ...},
         "sessions_finished": int, "queue_depth": ..., "live_sessions": ...,
         "cache_hit_ratio": ..., "throttled_total": int}

    ``first_result_seconds`` is time-to-first-result — the anytime
    latency the ``stream`` verb serves; ``throttled_total`` counts
    per-tenant quota rejections across all tenants.
    """
    latency = _merged_histogram(registry, "service_session_seconds")
    percentiles: dict[str, float | None] = {}
    for quantile in SLO_QUANTILES:
        key = f"p{int(quantile * 100)}"
        percentiles[key] = latency.percentile(quantile) if latency else None

    first = _merged_histogram(registry, "service_first_result_seconds")
    first_percentiles: dict[str, float | None] = {}
    for quantile in SLO_QUANTILES:
        key = f"p{int(quantile * 100)}"
        first_percentiles[key] = first.percentile(quantile) if first else None

    throttled = 0
    for _, _, metric in registry.metrics_named(
        "service_throttled_total", kind="counter"
    ):
        throttled += metric.value

    hits = misses = 0
    for _, _, metric in registry.metrics_named(
        "service_cache_hits_total", kind="counter"
    ):
        hits += metric.value
    for _, _, metric in registry.metrics_named(
        "service_cache_misses_total", kind="counter"
    ):
        misses += metric.value
    lookups = hits + misses
    hit_ratio = (hits / lookups) if lookups else None

    return {
        "session_seconds": percentiles,
        "first_result_seconds": first_percentiles,
        "sessions_finished": latency.count if latency else 0,
        "queue_depth": registry.value("service_queue_depth"),
        "live_sessions": registry.value("service_live_sessions"),
        "cache_hit_ratio": hit_ratio,
        "throttled_total": throttled,
    }


def set_slo_gauges(registry: MetricRegistry) -> dict:
    """Compute the SLOs and publish them as ``slo_*`` gauges.

    Called on every stats/metrics scrape, so the gauges are as fresh as
    the scrape that reads them.  Returns the computed dict (the ``slo``
    block of the ``stats`` verb payload).
    """
    slos = compute_slos(registry)
    publish_slos(registry, slos)
    return slos


def publish_slos(registry: MetricRegistry, slos: dict) -> None:
    """Set the ``slo_*`` gauges of ``registry`` to ``slos`` (a
    :func:`compute_slos` dict, or one merged from several, as a fleet's
    front-end merges its workers'); a ``None`` value sets nothing."""
    if registry.enabled:
        for key, value in slos["session_seconds"].items():
            if value is not None:
                quantile = f"0.{key[1:]}" if key != "p50" else "0.5"
                registry.gauge("slo_session_seconds", quantile=quantile).set(value)
        for key, value in slos["first_result_seconds"].items():
            if value is not None:
                quantile = f"0.{key[1:]}" if key != "p50" else "0.5"
                registry.gauge(
                    "slo_first_result_seconds", quantile=quantile
                ).set(value)
        if slos["cache_hit_ratio"] is not None:
            registry.gauge("slo_cache_hit_ratio").set(slos["cache_hit_ratio"])
