"""Span-based profiling: nested, named wall-clock measurements.

A :class:`Tracer` accumulates *spans* — named regions of execution entered
via ``with tracer.span("pull"):``.  Spans nest: entering a span while
another is open records the child under the parent's path, so one operator
run yields an aggregate tree such as::

    get_next            152   0.0410s
    get_next/pull       300   0.0121s
    get_next/bound      300   0.0203s

Only aggregates are kept (per-path call count and total seconds), which
keeps the per-call overhead to one ``perf_counter`` pair and a dict
update — cheap enough to leave enabled on hot paths.  A disabled tracer
hands out a shared no-op context manager, making instrumented code
essentially free when observability is off.
"""

from __future__ import annotations

import time


class SpanStats:
    """Mutable per-path accumulator: how often and how long.

    Nodes double as tree vertices: ``children`` maps a child span name to
    its stats so the hot path resolves the current path with one string
    dict lookup instead of materialising and hashing a path tuple per
    span exit.  ``registered`` marks nodes present in the tracer's
    canonical path index (intermediate nodes created by
    :meth:`Tracer.handle` stay invisible to queries until entered).
    """

    __slots__ = ("count", "seconds", "children", "registered")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.children: dict | None = None
        self.registered = False

    def add(self, elapsed: float) -> None:
        self.count += 1
        self.seconds += elapsed

    def add_scaled(self, elapsed: float, scale: int) -> None:
        """Fold one *sampled* measurement standing in for ``scale`` calls.

        Used by hot loops that time only every Nth iteration: the scaled
        accumulation keeps ``count``/``seconds`` unbiased estimators of
        the unsampled totals.
        """
        self.count += scale
        self.seconds += elapsed * scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanStats(count={self.count}, seconds={self.seconds:.6f})"


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """Context manager pushing one named region onto the tracer stack.

    Instances are cached per (tracer, name) and reused across entries —
    span() on a hot path costs one dict lookup, no allocation.  The
    ``entered`` flag routes same-name reentrancy (``work/work`` nesting)
    to a throwaway instance so the cached one's state stays private.
    """

    __slots__ = ("_tracer", "_name", "_start", "_stats", "entered")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.entered = False

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        name = self._name
        parent = tracer._frames[-1]
        children = parent.children
        if children is None:
            children = parent.children = {}
        stats = children.get(name)
        tracer._stack.append(name)
        if stats is None or not stats.registered:
            if stats is None:
                stats = children[name] = SpanStats()
            tracer._spans[tuple(tracer._stack)] = stats
            stats.registered = True
        tracer._frames.append(stats)
        self._stats = stats
        self.entered = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._frames.pop()
        tracer._stack.pop()
        self._stats.add(elapsed)
        self.entered = False
        return False


class Tracer:
    """Aggregating span profiler.

    Spans are keyed by their full path (tuple of names from the outermost
    open span down); exceptions raised inside a span still accumulate its
    elapsed time, mirroring ``try/finally`` timer semantics.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._stack: list[str] = []
        self._spans: dict[tuple[str, ...], SpanStats] = {}
        self._root = SpanStats()
        self._frames: list[SpanStats] = [self._root]
        self._cached: dict[str, _Span] = {}

    def span(self, name: str):
        """Context manager measuring ``name`` nested under open spans."""
        if not self.enabled:
            return NULL_SPAN
        span = self._cached.get(name)
        if span is None:
            span = self._cached[name] = _Span(self, name)
        elif span.entered:
            return _Span(self, name)
        return span

    def handle(self, path) -> SpanStats:
        """A pre-resolved accumulator for a fixed *absolute* span path.

        The returned :class:`SpanStats` is the same node ``with
        tracer.span(...)`` would update at that nesting, so hot loops can
        skip the span machinery entirely and pay only a ``perf_counter``
        pair plus :meth:`SpanStats.add` per region — roughly a third of
        the context-manager cost.  Callers own the enabled check (this is
        a hot-path API; handles on a disabled tracer still accumulate but
        are never exported).  Handles go stale across :meth:`reset`.
        """
        return self._resolve(path)

    def _resolve(self, path) -> SpanStats:
        key = tuple(path.split("/")) if isinstance(path, str) else tuple(path)
        stats = self._spans.get(key)
        if stats is None:
            node = self._root
            for name in key:
                if node.children is None:
                    node.children = {}
                child = node.children.get(name)
                if child is None:
                    child = node.children[name] = SpanStats()
                node = child
            stats = self._spans[key] = node
            stats.registered = True
        return stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans(self) -> dict[str, SpanStats]:
        """All aggregates keyed by ``"/"``-joined path."""
        return {"/".join(path): stats for path, stats in self._spans.items()}

    def seconds(self, name: str) -> float:
        """Total seconds across every path whose innermost span is ``name``."""
        return sum(
            stats.seconds for path, stats in self._spans.items() if path[-1] == name
        )

    def count(self, name: str) -> int:
        """Total entries across every path whose innermost span is ``name``."""
        return sum(
            stats.count for path, stats in self._spans.items() if path[-1] == name
        )

    def totals_by_name(self) -> dict[str, float]:
        """Seconds aggregated by innermost span name (flat timer view)."""
        totals: dict[str, float] = {}
        for path, stats in self._spans.items():
            name = path[-1]
            totals[name] = totals.get(name, 0.0) + stats.seconds
        return totals

    def reset(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self._root = SpanStats()
        self._frames = [self._root]
        self._cached.clear()
