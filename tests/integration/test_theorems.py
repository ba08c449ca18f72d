"""Integration tests for the paper's analytical results.

* Theorem 4.2: ``depth(FRPA, I, i) <= depth(PBRJ_FR^RR, I, i)`` on *both*
  inputs, for any instance.
* Tightness (Theorem 4.1 / corollary): the FR bound is never larger than
  the corner bound, and all FR-family bounds dominate the true score of
  every undiscovered result.
* a-FRPA's sandwich: its depths lie between FRPA's (tight bound) and a
  corner-bound operator's with the same pulling strategy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import a_frpa, frpa, hrjn_star, make_operator, pbrj_fr_rr
from repro.data.workload import random_instance

INSTANCE_GRID = [
    dict(n_left=300, n_right=300, e_left=2, e_right=2, num_keys=30, k=10,
         cut=0.5, seed=11),
    dict(n_left=400, n_right=200, e_left=1, e_right=1, num_keys=25, k=20,
         cut=0.25, seed=12),
    dict(n_left=250, n_right=250, e_left=2, e_right=1, num_keys=40, k=5,
         cut=0.75, seed=13),
    dict(n_left=200, n_right=200, e_left=3, e_right=3, num_keys=20, k=10,
         cut=0.5, seed=14),
    dict(n_left=500, n_right=100, e_left=2, e_right=2, num_keys=50, k=15,
         cut=1.0, seed=15),
]


@pytest.mark.parametrize("spec", INSTANCE_GRID)
class TestTheorem42:
    def test_frpa_never_deeper_than_pbrj_fr_rr(self, spec):
        instance = random_instance(**spec)
        a = frpa(instance)
        b = pbrj_fr_rr(instance)
        a.top_k(spec["k"])
        b.top_k(spec["k"])
        assert all(d <= e for d, e in zip(a.depths(), b.depths()))

    def test_frpa_sum_depths_never_worse(self, spec):
        instance = random_instance(**spec)
        a = frpa(instance)
        b = pbrj_fr_rr(instance)
        a.top_k(spec["k"])
        b.top_k(spec["k"])
        assert a.sum_depths <= b.sum_depths


@pytest.mark.parametrize("spec", INSTANCE_GRID)
class TestBoundDominance:
    def test_afr_between_frpa_and_hrjn_star(self, spec):
        """aFR is FR* loosened toward the corner bound, so its depths are
        sandwiched between FRPA's and HRJN*'s (all use PA pulling)."""
        instance = random_instance(**spec)
        tight = frpa(instance)
        adaptive = a_frpa(instance, max_cr_size=4, resolution=8)
        corner = hrjn_star(instance)
        tight.top_k(spec["k"])
        adaptive.top_k(spec["k"])
        corner.top_k(spec["k"])
        assert (
            tight.sum_depths
            <= adaptive.sum_depths
            <= corner.sum_depths
        )

    def test_large_budget_afr_equals_frpa(self, spec):
        instance = random_instance(**spec)
        tight = frpa(instance)
        adaptive = a_frpa(instance, max_cr_size=10_000)
        tight_scores = [r.score for r in tight.top_k(spec["k"])]
        adaptive_scores = [r.score for r in adaptive.top_k(spec["k"])]
        assert tight_scores == pytest.approx(adaptive_scores)
        assert tight.depths() == adaptive.depths()


class TestInstanceOptimalityRatio:
    """Empirical sanity check of the optimality ratio.

    The true optimality statement quantifies over all algorithms; here we
    check a practical surrogate on a family of random instances: FRPA's
    sumDepths never exceeds 2x the best sumDepths among all implemented
    operators, plus a constant.
    """

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_ratio_against_implemented_competitors(self, seed):
        instance = random_instance(
            n_left=200, n_right=200, e_left=2, e_right=2,
            num_keys=20, k=5, cut=0.5, seed=seed,
        )
        depths = {}
        for name in ["HRJN*", "HRJN", "PBRJ_FR^RR", "FRPA", "a-FRPA"]:
            op = make_operator(name, instance)
            op.top_k(5)
            depths[name] = op.sum_depths
        best = min(depths.values())
        assert depths["FRPA"] <= 2 * best + 2
