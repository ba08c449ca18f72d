"""Tests for metrics and timing instrumentation."""

import pytest

from repro.stats.metrics import (
    DepthReport,
    TimingBreakdown,
    mean_depths,
    mean_timing,
)


class TestDepthReport:
    def test_sum(self):
        assert DepthReport(3, 4).sum_depths == 7

    def test_add(self):
        combined = DepthReport(1, 2) + DepthReport(10, 20)
        assert combined == DepthReport(11, 22)

    def test_mean(self):
        mean = mean_depths([DepthReport(10, 0), DepthReport(20, 10)])
        assert mean == DepthReport(15, 5)

    def test_mean_rounds(self):
        mean = mean_depths([DepthReport(1, 0), DepthReport(2, 0)])
        assert mean.left in (1, 2)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean_depths([])


class TestTimingBreakdown:
    def test_other_derived(self):
        timing = TimingBreakdown(io=1.0, bound=2.0, total=5.0)
        assert timing.other == pytest.approx(2.0)

    def test_other_clamped_nonnegative(self):
        timing = TimingBreakdown(io=3.0, bound=3.0, total=5.0)
        assert timing.other == 0.0

    def test_add_and_scale(self):
        a = TimingBreakdown(1, 2, 4)
        b = TimingBreakdown(0.5, 0.5, 1)
        assert (a + b).total == pytest.approx(5.0)
        assert a.scaled(2).io == pytest.approx(2.0)

    def test_mean(self):
        mean = mean_timing([TimingBreakdown(1, 1, 3), TimingBreakdown(3, 1, 5)])
        assert mean.io == pytest.approx(2.0)
        assert mean.total == pytest.approx(4.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean_timing([])
