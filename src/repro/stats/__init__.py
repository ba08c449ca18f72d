"""Metrics and timing instrumentation."""

from repro.stats.metrics import (
    DepthReport,
    MemoryHighWater,
    OperatorStats,
    TimingBreakdown,
    mean_depths,
    mean_timing,
)
from repro.stats.trace import BoundTrace, TraceEntry

__all__ = [
    "BoundTrace",
    "TraceEntry",
    "DepthReport",
    "MemoryHighWater",
    "OperatorStats",
    "TimingBreakdown",
    "mean_depths",
    "mean_timing",
]
