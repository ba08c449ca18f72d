"""Tests for the calibrated cost model (coefficients + scoring formulas)."""

from dataclasses import fields

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
    def test_set_coefficients_is_the_one_seam(self):
        # Installed coefficients win until ``None`` returns to measuring;
        # no file or environment variable names them.
        assert len(fields(CostCoefficients)) == 5
        custom = CostCoefficients(pull_pbrj=7.5e-7)
        try:
            set_coefficients(custom)
            assert coefficients() is custom
        finally:
            set_coefficients(CostCoefficients())
        assert not hasattr(CostCoefficients, "from_dict")

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
