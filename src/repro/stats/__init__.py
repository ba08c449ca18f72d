"""Metrics and timing instrumentation."""

from repro.stats.metrics import (
    DepthReport,
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
    "OperatorStats",
    "TimingBreakdown",
    "mean_depths",
    "mean_timing",
]
