"""Structured observability: spans, metrics, and pluggable exporters.

:class:`Observability` bundles the three primitives every instrumented
component consumes:

* a per-operator span :class:`~repro.obs.span.Tracer` (nested wall-clock
  regions with call counts) obtained via :meth:`Observability.tracer`;
* a shared :class:`~repro.obs.metrics.MetricRegistry` (counters, gauges,
  histograms with labels);
* pluggable exporters (:class:`~repro.obs.export.ConsoleExporter`,
  :class:`~repro.obs.export.JsonlExporter`) that receive discrete events
  immediately and span/metric aggregates at :meth:`Observability.flush`.

Operators take an optional ``obs=`` argument; passing ``None`` selects the
shared :data:`NULL_OBS` instance, whose tracer/metric handles are no-ops —
instrumentation stays in place at near-zero cost.

Typical use::

    from repro.obs import Observability, JsonlExporter

    obs = Observability(exporters=[JsonlExporter("events.jsonl")])
    operator = frpa(instance, obs=obs)
    operator.top_k(10)
    obs.close()          # flush span + metric aggregates, close the file
"""

from __future__ import annotations

from repro.obs.export import (
    ConsoleExporter,
    JsonlExporter,
    read_events,
    reconstruct_timing,
)
from repro.obs.expose import (
    compute_slos,
    render_prometheus,
    set_slo_gauges,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_METRIC,
)
from repro.obs.span import SpanStats, Tracer
from repro.obs.trace import TraceContext, TraceTree, span_record

__all__ = [
    "ConsoleExporter",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricRegistry",
    "NULL_METRIC",
    "NULL_OBS",
    "Observability",
    "SpanStats",
    "TraceContext",
    "TraceTree",
    "Tracer",
    "compute_slos",
    "read_events",
    "reconstruct_timing",
    "render_prometheus",
    "set_slo_gauges",
    "span_record",
]


class Observability:
    """A shared observability pipeline for one run/experiment."""

    def __init__(self, enabled: bool = True, exporters=()) -> None:
        self.enabled = enabled
        self.metrics = MetricRegistry(enabled=enabled)
        self.exporters = list(exporters)
        self._tracers: list[tuple[str, Tracer]] = []
        self._flushed_events = 0

    # ------------------------------------------------------------------
    # Component hooks
    # ------------------------------------------------------------------
    def tracer(self, name: str) -> Tracer:
        """A fresh span tracer registered under ``name`` (operator label).

        Each operator gets its own tracer so per-operator timings stay
        separable (pipelines nest operators inside each other's spans).
        Disabled pipelines hand out unregistered, disabled tracers.
        """
        tracer = Tracer(enabled=self.enabled)
        if self.enabled:
            self._tracers.append((name, tracer))
        return tracer

    def event(self, name: str, **fields) -> None:
        """Emit a discrete event to every exporter immediately."""
        if not self.enabled:
            return
        record = {"type": "event", "name": name, **fields}
        for exporter in self.exporters:
            exporter.export(record)

    def meta(self, **fields) -> None:
        """Emit a stream-header event describing the producing command."""
        if not self.enabled:
            return
        record = {"type": "meta", **fields}
        for exporter in self.exporters:
            exporter.export(record)

    def trace(self, record: dict) -> None:
        """Export one trace record (see :func:`repro.obs.trace.span_record`).

        Trace records are discrete occurrences like events — they go to
        every exporter immediately, so a JSONL stream interleaves spans
        from the service and the operators in arrival order; :class:`~repro.obs.trace.TraceTree` reassembles
        them by ids, not position.
        """
        if not self.enabled:
            return
        for exporter in self.exporters:
            exporter.export(record)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def aggregate_events(self) -> list[dict]:
        """Span and metric aggregates as export-ready dict records."""
        records: list[dict] = []
        for op_name, tracer in self._tracers:
            for path, stats in sorted(tracer.spans().items()):
                records.append({
                    "type": "span",
                    "op": op_name,
                    "path": path,
                    "count": stats.count,
                    "seconds": stats.seconds,
                })
        records.extend(self.metrics.snapshot())
        return records

    def flush(self) -> None:
        """Push current span/metric aggregates to every exporter."""
        if not self.enabled:
            return
        for record in self.aggregate_events():
            for exporter in self.exporters:
                exporter.export(record)

    def close(self) -> None:
        """Flush aggregates and close every exporter."""
        self.flush()
        for exporter in self.exporters:
            exporter.close()

    def summary(self) -> str:
        """Human-readable rendering of the current aggregates."""
        console = ConsoleExporter()
        for record in self.aggregate_events():
            console.export(record)
        return console.render()


#: Shared disabled pipeline: every handle it returns is a no-op.
NULL_OBS = Observability(enabled=False)
