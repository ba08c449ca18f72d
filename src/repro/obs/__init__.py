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

import weakref

from repro.obs.export import (
    ConsoleExporter,
    JsonlExporter,
    read_events,
    reconstruct_timing,
)
from repro.obs.expose import (
    compute_slos,
    publish_slos,
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
    "publish_slos",
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
        # Live operators' spans by (name, weak tracer); finished ones' by
        # name, then path: [count, seconds].
        self._tracers: dict[tuple[str, weakref.ref], dict] = {}
        self._retired: dict[str, dict[tuple, list]] = {}

    # ------------------------------------------------------------------
    # Component hooks
    # ------------------------------------------------------------------
    def tracer(self, name: str) -> Tracer:
        """A fresh span tracer registered under ``name`` (operator label).

        Each operator gets its own tracer so per-operator timings stay
        separable (pipelines nest operators inside each other's spans).
        Held weakly: a finished operator's spans fold into its name's.
        Disabled pipelines hand out unregistered, disabled tracers.
        """
        tracer = Tracer(enabled=self.enabled)
        if self.enabled:
            ref = weakref.ref(tracer, lambda ref: self._retire(name, ref))
            self._tracers[name, ref] = tracer._spans
        return tracer

    def _retire(self, name: str, ref: weakref.ref) -> None:
        folded = self._retired.setdefault(name, {})
        for path, stats in self._tracers.pop((name, ref)).items():
            total = folded.setdefault(path, [0, 0.0])
            total[0] += stats.count
            total[1] += stats.seconds

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
        live = [(name, ref()) for name, ref in list(self._tracers)]  # none retires now
        spans = [(name, {"/".join(path): total for path, total in folded.items()})
                 for name, folded in list(self._retired.items())]
        spans += [(name, {path: (stats.count, stats.seconds)
                          for path, stats in tracer.spans().items()})
                  for name, tracer in live if tracer is not None]
        records: list[dict] = []
        for op_name, by_path in spans:
            for path, (count, seconds) in sorted(by_path.items()):
                records.append({
                    "type": "span",
                    "op": op_name,
                    "path": path,
                    "count": count,
                    "seconds": seconds,
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
