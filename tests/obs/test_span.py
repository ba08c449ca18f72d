"""Tests for the span tracer: nesting, aggregation, disabled mode."""

import time

import pytest

from repro.obs.span import NULL_SPAN, Tracer


class TestNesting:
    def test_nested_spans_record_paths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        spans = tracer.spans()
        assert spans["outer"].count == 1
        assert spans["outer/inner"].count == 2

    def test_same_name_at_different_depths_kept_separate(self):
        tracer = Tracer()
        with tracer.span("work"):
            with tracer.span("work"):
                pass
        assert set(tracer.spans()) == {"work", "work/work"}

    def test_parent_time_encloses_child_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        spans = tracer.spans()
        assert spans["outer"].seconds >= spans["outer/inner"].seconds
        assert spans["outer/inner"].seconds >= 0.01

    def test_deep_nesting_path(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("b"), tracer.span("c"):
            pass
        assert "a/b/c" in tracer.spans()


class TestAggregationByName:
    def test_seconds_sums_across_paths(self):
        tracer = Tracer()
        with tracer.span("bound"):
            time.sleep(0.005)
        with tracer.span("get_next"):
            with tracer.span("bound"):
                time.sleep(0.005)
        assert tracer.seconds("bound") >= 0.01
        assert tracer.count("bound") == 2

    def test_totals_by_name_flattens(self):
        tracer = Tracer()
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        with tracer.span("y"):
            pass
        totals = tracer.totals_by_name()
        assert set(totals) == {"x", "y"}

    def test_unknown_name_is_zero(self):
        assert Tracer().seconds("nothing") == 0.0
        assert Tracer().count("nothing") == 0


class TestExceptionSafety:
    def test_exception_still_accumulates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                time.sleep(0.005)
                raise RuntimeError("boom")
        assert tracer.seconds("work") >= 0.005
        assert tracer.count("work") == 1

    def test_stack_unwinds_after_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError
        with tracer.span("after"):
            pass
        assert "after" in tracer.spans()  # not nested under a stale path


class TestDisabled:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work"):
            time.sleep(0.002)
        assert tracer.spans() == {}

    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b") is NULL_SPAN

    def test_enabling_later_starts_recording(self):
        tracer = Tracer(enabled=False)
        tracer.enabled = True
        with tracer.span("work"):
            pass
        assert tracer.count("work") == 1


class TestReset:
    def test_reset_clears_aggregates(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.reset()
        assert tracer.spans() == {}
