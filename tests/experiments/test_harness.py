"""Tests for the experiment harness (tiny scales: these must stay fast)."""

import pytest

from repro.core.operators import make_operator, operator_names
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.experiments.harness import (
    CAP_QUANTUM,
    AveragedResult,
    averaged_runs,
    run_comparison,
    run_operator,
)

TINY = WorkloadParams(e=1, c=0.5, z=0.5, k=3, scale=0.0002, seed=0)


@pytest.fixture(scope="module")
def instance():
    return lineitem_orders_instance(TINY)


class TestRunOperator:
    def test_returns_scores_and_stats(self, instance):
        result = run_operator("FRPA", instance)
        assert len(result.scores) == TINY.k
        assert result.stats.operator == "FRPA"
        assert result.sum_depths > 0
        assert not result.capped

    def test_k_override(self, instance):
        result = run_operator("HRJN*", instance, k=1)
        assert len(result.scores) == 1

    def test_pull_budget_marks_capped(self, instance, monkeypatch):
        # A capped run reads the clock only between steps of CAP_QUANTUM
        # pulls: a cap that passes during the first step stops the run
        # after exactly that many pulls, capped, with nothing proved yet.
        readings = iter([0.0, 0.0])

        class Clock:
            @staticmethod
            def perf_counter():
                return next(readings, 10.0)

        monkeypatch.setattr("repro.experiments.harness.time", Clock)
        result = run_operator("HRJN*", instance, max_seconds=1.0)
        assert result.capped
        assert result.scores == ()
        assert result.stats.sum_depths == CAP_QUANTUM

    def test_time_budget_marks_capped(self, instance):
        # The loop form, the corner form and any-k: the runner holds the
        # cap, so every form is capped the same way, before any work.
        for name in ("FRPA", "HRJN*", "AnyK"):
            result = run_operator(name, instance, max_seconds=0.0)
            assert result.capped and result.scores == ()
            assert result.stats.sum_depths == 0

    def test_a_cap_the_run_beats_changes_nothing(self, instance):
        capped = run_operator("FRPA", instance, max_seconds=60.0)
        plain = run_operator("FRPA", instance)
        assert not capped.capped
        assert capped.scores == plain.scores
        assert capped.stats.depths == plain.stats.depths

    @pytest.mark.parametrize("name", operator_names())
    def test_uncapped_run_is_top_k(self, instance, name, monkeypatch):
        built = []

        def recording(*args, **kwargs):
            built.append(make_operator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("repro.experiments.harness.make_operator", recording)
        result = run_operator(name, instance)
        operator = make_operator(name, instance)
        reference = operator.top_k(TINY.k)
        assert result.scores == tuple(r.score for r in reference)
        assert result.stats.depths == operator.stats().depths
        assert built[0].pulls == operator.pulls

    def test_operator_kwargs_forwarded(self, instance):
        result = run_operator(
            "a-FRPA", instance, operator_kwargs={"max_cr_size": 7}
        )
        assert len(result.scores) == TINY.k

    def test_all_operators_agree(self, instance):
        results = run_comparison(
            instance, ["HRJN", "HRJN*", "PBRJ_FR^RR", "FRPA", "a-FRPA"]
        )
        score_sets = {r.scores for r in results.values()}
        assert len(score_sets) == 1


class TestAveragedRuns:
    def test_averages_over_seeds(self):
        results = averaged_runs(TINY, ["HRJN*", "FRPA"], num_seeds=2)
        assert set(results) == {"HRJN*", "FRPA"}
        for res in results.values():
            assert isinstance(res, AveragedResult)
            assert res.runs == 2
            assert res.sum_depths > 0
            assert not res.capped

    def test_frpa_never_deeper_on_average(self):
        results = averaged_runs(TINY, ["HRJN*", "FRPA"], num_seeds=2)
        assert results["FRPA"].sum_depths <= results["HRJN*"].sum_depths

    def test_per_operator_budgets(self):
        results = averaged_runs(
            TINY,
            ["HRJN*", "FRPA"],
            num_seeds=1,
            operator_budgets={"FRPA": 0.0},
        )
        assert results["FRPA"].capped
        assert not results["HRJN*"].capped

    def test_operator_kwargs_by_name(self):
        results = averaged_runs(
            TINY,
            ["a-FRPA"],
            num_seeds=1,
            operator_kwargs={"a-FRPA": {"max_cr_size": 5}},
        )
        assert not results["a-FRPA"].capped

    def test_capped_property_counts(self):
        result = AveragedResult(
            operator="x",
            depths=None,  # type: ignore[arg-type]
            timing=None,  # type: ignore[arg-type]
            io_cost=0.0,
            capped_runs=1,
            runs=3,
        )
        assert result.capped
