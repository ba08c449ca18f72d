"""Tests for the calibrated cost model (coefficients + scoring formulas)."""

import json
from dataclasses import replace

import pytest

from repro.config import ReproConfig
from repro.planner.cost import (
    CostCoefficients,
    PlanCandidate,
    coefficients,
    measure,
    score_anyk_candidate,
    score_multiway_pbrj,
    score_pbrj_candidate,
    set_coefficients,
)

COEFFS = CostCoefficients()


def pbrj_candidate(operator="HRJN*") -> PlanCandidate:
    return PlanCandidate(algorithm="pbrj", operator=operator)


class TestCoefficients:
    def test_round_trip(self):
        coeffs = CostCoefficients(pull_pbrj=1e-6, multiway_factor=0.5)
        assert CostCoefficients.from_dict(coeffs.to_dict()) == coeffs
        assert len(coeffs.to_dict()) == 5

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown cost coefficient"):
            CostCoefficients.from_dict({"pull_pbrj": 1e-6, "warp_speed": 9})
        # ... as a file written when the model had a kernel factor is.
        with pytest.raises(ValueError, match="kernel_auto_bonus, kernel_crossover"):
            CostCoefficients.from_dict(
                {"kernel_auto_bonus": 0.95, "kernel_crossover": 2000}
            )
        # ... or when shards could run in forked children.
        with pytest.raises(
            ValueError, match="parallelism, round_process, startup_process"
        ):
            CostCoefficients.from_dict({
                "round_process": 3e-4, "startup_process": 4e-2, "parallelism": 2,
            })
        # ... or when the planner priced shard layouts.
        with pytest.raises(
            ValueError,
            match="cover_exponent, partition_per_tuple, round_serial, startup_serial",
        ):
            CostCoefficients.from_dict({
                "cover_exponent": 1.0, "partition_per_tuple": 4e-6,
                "round_serial": 3e-6, "startup_serial": 2e-5,
            })

    def test_partial_dict_keeps_defaults(self):
        coeffs = CostCoefficients.from_dict({"pull_anyk": 5e-6})
        assert coeffs.pull_anyk == 5e-6
        assert coeffs.pull_pbrj == CostCoefficients().pull_pbrj

    def test_config_file_resolution(self, tmp_path, monkeypatch):
        # A coefficients file is named by ReproConfig.planner_coeffs only:
        # the $REPRO_PLANNER_COEFFS level is retired, the variable inert.
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"pull_pbrj": 7.5e-7}))
        monkeypatch.setenv("REPRO_PLANNER_COEFFS", str(path))
        assert ReproConfig.from_env().planner_coeffs is None
        try:
            replace(ReproConfig.current(), planner_coeffs=str(path)).apply()
            assert coefficients().pull_pbrj == 7.5e-7
        finally:
            set_coefficients(CostCoefficients())

    def test_measure_produces_positive_costs(self):
        measured = measure(seed=0)
        assert measured.pull_pbrj > 0
        assert measured.pull_anyk > 0


class TestPbrjScoring:
    def test_cost_is_depth_times_pull_cost(self):
        result = score_pbrj_candidate(pbrj_candidate(), coeffs=COEFFS, depth=200)
        assert result.cost == 200 * COEFFS.pull_pbrj
        assert result.detail == {"depth": 200.0, "compute": result.cost}

    def test_tighter_bound_reads_shallower_pays_more_per_pull(self):
        hrjn = score_pbrj_candidate(
            pbrj_candidate("HRJN*"), coeffs=COEFFS, depth=10_000
        )
        frpa = score_pbrj_candidate(
            pbrj_candidate("FRPA"), coeffs=COEFFS, depth=10_000
        )
        assert frpa.detail["depth"] < hrjn.detail["depth"]
        assert frpa.cost / frpa.detail["depth"] > hrjn.cost / hrjn.detail["depth"]

    def test_zero_depth_clamped(self):
        result = score_pbrj_candidate(pbrj_candidate(), coeffs=COEFFS, depth=0)
        assert result.cost > 0


class TestAnykScoring:
    def test_linear_in_input(self):
        candidate = PlanCandidate(algorithm="anyk", operator="AnyK")
        small = score_anyk_candidate(candidate, coeffs=COEFFS, total_tuples=1_000, k=10)
        large = score_anyk_candidate(candidate, coeffs=COEFFS, total_tuples=10_000, k=10)
        assert large.cost > small.cost
        # Depth-independent: the DP reads everything regardless.
        assert large.detail["depth"] == 10_000

    def test_label(self):
        assert PlanCandidate(algorithm="anyk", operator="AnyK").label() == "anyk"
        assert pbrj_candidate("FRPA").label() == "pbrj/FRPA"


class TestMultiwayScoring:
    def test_arity_raises_cost(self):
        candidate = pbrj_candidate()
        two = score_multiway_pbrj(candidate, coeffs=COEFFS, depth=1_000, arity=2)
        four = score_multiway_pbrj(candidate, coeffs=COEFFS, depth=1_000, arity=4)
        assert four.cost > two.cost
