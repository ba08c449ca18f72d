"""In-memory span log for the traced pass.

Spans are recorded from the harness's own files, around its calls into
each layer: name, start, end, parent, and one trace id per query.  They
stay in memory until the pass ends and are then written out as JSON
lines; a span's self time is its duration minus the part of it its
children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanLog:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace: str, **attrs):
        """Time the block as a child of whichever span is open."""
        index = self.add(name, trace, time.perf_counter(), None, **attrs)
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, trace: str, start: float, end: float,
            parent: int | None = None, **attrs) -> int:
        """Record an already-timed interval; returns its id.

        ``parent`` defaults to whichever span is open.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({
            "id": len(self.spans), "trace": trace, "name": name,
            "parent": parent, "start": start, "end": end, **attrs,
        })
        return len(self.spans) - 1

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
