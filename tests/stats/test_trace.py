"""Tests for bound-evolution tracing."""

import math

import pytest

from repro.core.operators import frpa, hrjn_star
from repro.data.workload import random_instance
from repro.stats.trace import BoundTrace


@pytest.fixture
def instance():
    return random_instance(
        n_left=300, n_right=300, e_left=2, e_right=2,
        num_keys=30, k=5, cut=0.5, seed=0,
    )


class TestBoundTrace:
    def test_records_every_pull(self, instance):
        trace = BoundTrace()
        operator = frpa(instance, trace=trace)
        operator.top_k(5)
        assert len(trace) == operator.pulls
        assert trace.entries[0].pull == 1
        assert trace.entries[-1].pull == operator.pulls

    def test_bounds_non_increasing_for_frpa(self, instance):
        trace = BoundTrace()
        frpa(instance, trace=trace).top_k(5)
        finite = [b for b in trace.bounds() if math.isfinite(b)]
        assert all(a >= b - 1e-9 for a, b in zip(finite, finite[1:]))

    def test_pulls_per_side_sums(self, instance):
        trace = BoundTrace()
        operator = hrjn_star(instance, trace=trace)
        operator.top_k(5)
        left, right = trace.pulls_per_side()
        assert [left, right] == operator.depths()

    def test_bound_at_emission(self, instance):
        trace = BoundTrace()
        operator = frpa(instance, trace=trace)
        results = operator.top_k(3)
        bound = trace.bound_at_emission(1)
        assert bound is not None
        # When the first result became emittable, its score beat the bound.
        assert results[0].score >= bound - 1e-9

    def test_bound_at_emission_empty_trace(self):
        assert BoundTrace().bound_at_emission(1) is None

    def test_bound_at_emission_n_larger_than_emitted(self, instance):
        trace = BoundTrace()
        results = frpa(instance, trace=trace).top_k(3)
        # More results than any pull ever saw emitted -> no matching entry.
        assert trace.bound_at_emission(len(results) + 1) is None

    def test_bound_at_emission_each_result_ordered(self, instance):
        trace = BoundTrace()
        frpa(instance, trace=trace).top_k(3)
        # The final result(s) may drain from the buffer after the last
        # pull, so only query emission counts a pull actually recorded.
        recorded = max(entry.emitted for entry in trace.entries)
        bounds = [trace.bound_at_emission(n) for n in range(1, recorded + 1)]
        assert all(b is not None for b in bounds)
        # Later results become emittable at (weakly) lower bounds.
        assert all(a >= b - 1e-9 for a, b in zip(bounds, bounds[1:]))

    def test_sparkline_shape(self, instance):
        trace = BoundTrace()
        frpa(instance, trace=trace).top_k(5)
        line = trace.sparkline(width=40)
        assert 0 < len(line) <= 40
        assert set(line) <= set(BoundTrace._BLOCKS)

    def test_sparkline_empty(self):
        assert BoundTrace().sparkline() == ""

    def test_sparkline_last_sample_is_final_bound(self):
        # 100 strictly decreasing bounds downsampled to width 7: the right
        # edge must correspond to the final (minimum) bound value.
        trace = BoundTrace()
        for pull in range(1, 101):
            trace.record(pull, pull % 2, 100.0 - pull, 0, 0)
        line = trace.sparkline(width=7)
        assert len(line) == 7
        assert line[-1] == BoundTrace._BLOCKS[0]
        assert line[0] == BoundTrace._BLOCKS[-1]

    def test_sparkline_width_one(self):
        trace = BoundTrace()
        for pull in range(1, 10):
            trace.record(pull, 0, 10.0 - pull, 0, 0)
        assert len(trace.sparkline(width=1)) == 1

    def test_sparkline_records_obs_events(self):
        from repro.obs import Observability

        class Capture:
            def __init__(self):
                self.records = []

            def export(self, record):
                self.records.append(record)

            def close(self):
                pass

        capture = Capture()
        obs = Observability(exporters=[capture])
        trace = BoundTrace(obs=obs, operator="X")
        trace.record(1, 0, float("inf"), 0, 0)
        trace.record(2, 1, 1.5, 1, 1)
        events = [r for r in capture.records if r.get("name") == "bound_trace"]
        assert [e["pull"] for e in events] == [1, 2]
        assert events[0]["bound"] is None  # infinity is not JSON-friendly
        assert events[1]["bound"] == 1.5
        assert events[1]["op"] == "X"

    def test_summary_mentions_pulls(self, instance):
        trace = BoundTrace()
        frpa(instance, trace=trace).top_k(2)
        summary = trace.summary()
        assert "pulls:" in summary
        assert "bound:" in summary

    def test_summary_empty(self):
        assert BoundTrace().summary() == "empty trace"

    def test_corner_bound_stays_above_fr_bound(self, instance):
        """The FR bound is tighter: pointwise <= the corner bound trace."""
        fr_trace, corner_trace = BoundTrace(), BoundTrace()
        frpa(instance, trace=fr_trace).top_k(5)
        hrjn_star(instance, trace=corner_trace).top_k(5)
        # Compare over the shared prefix of pulls; pulling orders differ,
        # so this is a sanity check on magnitudes, not a theorem.
        shared = min(len(fr_trace), len(corner_trace))
        fr_final = fr_trace.bounds()[shared - 1]
        corner_final = corner_trace.bounds()[shared - 1]
        assert fr_final <= corner_final + 1e-9
