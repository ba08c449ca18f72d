"""Evaluation metrics: depths, simulated I/O cost, and time breakdowns.

These mirror the paper's two metrics (Section 6.1): ``sumDepths`` — the
total number of tuples pulled from the inputs — and wall-clock execution
time with its breakdown into I/O, bound computation, and other work
(Figure 2(b)).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class DepthReport:
    """Input depths after answering the K getNext calls, in the reports'
    two columns: the first input, then every other input together (for the
    binary join: left, right)."""

    left: int
    right: int

    @classmethod
    def of(cls, depths: Sequence[int]) -> "DepthReport":
        """The two columns of an operator's per-input ``depths()``."""
        first, *rest = depths
        return cls(first, sum(rest))

    @property
    def sum_depths(self) -> int:
        """The paper's ``sumDepths`` metric."""
        return self.left + self.right

    def __add__(self, other: "DepthReport") -> "DepthReport":
        return DepthReport(self.left + other.left, self.right + other.right)


@dataclass(frozen=True)
class TimingBreakdown:
    """Wall-clock seconds split into the paper's three components."""

    io: float
    bound: float
    total: float

    @property
    def other(self) -> float:
        """Time outside I/O and bound computation (join, buffers, control)."""
        return max(self.total - self.io - self.bound, 0.0)

    def __add__(self, other: "TimingBreakdown") -> "TimingBreakdown":
        return TimingBreakdown(
            self.io + other.io, self.bound + other.bound, self.total + other.total
        )

    def scaled(self, factor: float) -> "TimingBreakdown":
        return TimingBreakdown(self.io * factor, self.bound * factor, self.total * factor)


@dataclass(frozen=True)
class OperatorStats:
    """Everything measured about one operator run."""

    operator: str
    depths: DepthReport
    timing: TimingBreakdown
    io_cost: float
    bound_recomputations: int
    results: int

    @property
    def sum_depths(self) -> int:
        return self.depths.sum_depths


def mean_depths(reports: list[DepthReport]) -> DepthReport:
    """Component-wise mean of several depth reports (rounded)."""
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    return DepthReport(
        round(sum(r.left for r in reports) / n),
        round(sum(r.right for r in reports) / n),
    )


def mean_timing(breakdowns: list[TimingBreakdown]) -> TimingBreakdown:
    """Component-wise mean of several timing breakdowns."""
    if not breakdowns:
        raise ValueError("no breakdowns to average")
    n = len(breakdowns)
    return TimingBreakdown(
        sum(b.io for b in breakdowns) / n,
        sum(b.bound for b in breakdowns) / n,
        sum(b.total for b in breakdowns) / n,
    )
