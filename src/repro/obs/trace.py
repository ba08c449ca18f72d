"""Distributed trace context: one reconstructable tree per service request.

A :class:`TraceContext` is the minimal identity a span needs to land in a
trace tree: the request-wide ``trace_id``, this span's own ``span_id``,
and the parent span it hangs under.  Contexts are *immutable*; crossing a
component boundary mints a child context (:meth:`TraceContext.child`), so
the tree shape mirrors the call shape::

    request (client/server)                       trace=T span=a
      └─ session (scheduler)                      trace=T span=b parent=a

Span ids are random (``os.urandom``), which makes them unique across the
client, the fleet front-end and its worker processes without any
coordination.  Contexts serialize to plain dicts (:meth:`to_wire` /
:meth:`from_wire`) so they ride the JSON-lines protocol unchanged.

Trace *records* (``{"type": "trace", ...}``, built by :func:`span_record`)
are exported immediately through :meth:`repro.obs.Observability.trace`;
:class:`TraceTree` reloads a JSONL stream into a navigable tree and is
what the round-trip tests assert connectivity on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def _new_id() -> str:
    """A 64-bit random hex id (collision-safe across processes)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """Immutable identity of one span inside one trace.

    ``parent_id`` is ``None`` only for the root (request) span.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def root(cls) -> "TraceContext":
        """Mint a fresh trace with a fresh root span (one per request)."""
        return cls(trace_id=_new_id(), span_id=_new_id())

    def child(self) -> "TraceContext":
        """A new span in the same trace, parented under this one."""
        return TraceContext(
            trace_id=self.trace_id, span_id=_new_id(), parent_id=self.span_id
        )

    # ------------------------------------------------------------------
    # Wire format (JSON-lines protocol field ``trace``)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        wire = {"trace": self.trace_id, "span": self.span_id}
        if self.parent_id is not None:
            wire["parent"] = self.parent_id
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "TraceContext":
        return cls(
            trace_id=str(wire["trace"]),
            span_id=str(wire["span"]),
            parent_id=(str(wire["parent"]) if wire.get("parent") else None),
        )


def span_record(ctx: TraceContext, name: str, *, seconds=None, **fields) -> dict:
    """An export-ready trace record for one span occurrence.

    Structural spans (request, anyk) carry no ``seconds``; timed spans
    (session, anyk_dp) do.  Extra ``fields`` are free-form span
    attributes (pull counts, session id, …).
    """
    record = {
        "type": "trace",
        "name": name,
        "trace": ctx.trace_id,
        "span": ctx.span_id,
        "parent": ctx.parent_id,
    }
    if seconds is not None:
        record["seconds"] = seconds
    record.update(fields)
    return record


class TraceTree:
    """A reloaded trace: records indexed by span id, navigable as a tree.

    Built from a JSONL event stream (``type == "trace"`` records only).
    Multiple traces may share a stream; :meth:`spans_of` and
    :meth:`connected` scope every question to one ``trace_id``.
    """

    def __init__(self, records: list[dict]) -> None:
        self.records = [r for r in records if r.get("type") == "trace"]
        self._by_span: dict[str, dict] = {r["span"]: r for r in self.records}

    @classmethod
    def from_events(cls, events: list[dict]) -> "TraceTree":
        return cls(events)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def trace_ids(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            if record["trace"] not in seen:
                seen.append(record["trace"])
        return seen

    def spans_of(self, trace_id: str) -> list[dict]:
        return [r for r in self.records if r["trace"] == trace_id]

    def roots(self, trace_id: str | None = None) -> list[dict]:
        records = self.records if trace_id is None else self.spans_of(trace_id)
        return [r for r in records if r.get("parent") is None]

    def children(self, span_id: str) -> list[dict]:
        return [r for r in self.records if r.get("parent") == span_id]

    def named(self, name: str, trace_id: str | None = None) -> list[dict]:
        records = self.records if trace_id is None else self.spans_of(trace_id)
        return [r for r in records if r.get("name") == name]

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def path_to_root(self, span_id: str, limit: int = 64) -> list[dict]:
        """Parent chain from ``span_id`` up; stops at a root or a break."""
        chain: list[dict] = []
        record = self._by_span.get(span_id)
        while record is not None and len(chain) < limit:
            chain.append(record)
            parent = record.get("parent")
            if parent is None:
                break
            record = self._by_span.get(parent)
        return chain

    def connected(self, trace_id: str) -> bool:
        """True when every span of the trace parents back to its root."""
        spans = self.spans_of(trace_id)
        if not spans:
            return False
        for record in spans:
            chain = self.path_to_root(record["span"])
            if not chain or chain[-1].get("parent") is not None:
                return False
            if chain[-1]["trace"] != trace_id:
                return False
        return True

    def orphans(self, trace_id: str) -> list[dict]:
        """Spans whose parent chain does not reach the trace root."""
        return [
            r
            for r in self.spans_of(trace_id)
            if not (chain := self.path_to_root(r["span"]))
            or chain[-1].get("parent") is not None
        ]
