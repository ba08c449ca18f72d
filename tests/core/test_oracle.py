"""Tests for the clairvoyant oracle bound and the empirical OPT reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import LEFT, RIGHT, BoundContext
from repro.core.frstar_bound import FRStarBound
from repro.core.naive import naive_top_k, top_scores
from repro.core.operators import OPERATORS, make_operator
from repro.core.oracle import (
    OracleBound,
    certificate_optimal_sum_depths,
    optimal_sum_depths,
    oracle_operator,
)
from repro.data.workload import random_instance


def tiny_instance(seed=0, **overrides):
    spec = dict(
        n_left=120, n_right=120, e_left=2, e_right=2,
        num_keys=12, k=5, cut=0.5, seed=seed,
    )
    spec.update(overrides)
    return random_instance(**spec)


class TestOracleBound:
    def test_initial_bound_is_best_result(self):
        instance = tiny_instance()
        bound = OracleBound(instance)
        best = naive_top_k(
            instance.left.tuples, instance.right.tuples, instance.scoring, 1
        )[0].score
        assert bound.current() == pytest.approx(best)

    def test_bound_is_exact_max_of_undiscovered(self):
        instance = tiny_instance(seed=3)
        bound = OracleBound(instance)
        left = instance.sorted_tuples(0)
        right = instance.sorted_tuples(1)
        # Simulate a few pulls and verify against brute force each time.
        for step in range(10):
            side = step % 2
            position = bound._depths[side]
            rows = left if side == 0 else right
            if position >= len(rows):
                continue
            t = bound.update(side, rows[position])
            undiscovered = []
            dl, dr = bound._depths
            for i, ltup in enumerate(left):
                for j, rtup in enumerate(right):
                    if ltup.key == rtup.key and (i >= dl or j >= dr):
                        undiscovered.append(
                            instance.scoring(ltup.scores + rtup.scores)
                        )
            expected = max(undiscovered) if undiscovered else float("-inf")
            assert t == pytest.approx(expected)

    def test_oracle_never_above_other_bounds(self):
        """The oracle is the tightest correct bound: <= FR* pointwise."""
        instance = tiny_instance(seed=5)
        oracle = OracleBound(instance)
        fr = FRStarBound()
        fr.bind(BoundContext(instance.scoring, instance.dims))
        left = instance.sorted_tuples(0)
        right = instance.sorted_tuples(1)
        for step in range(20):
            side = step % 2
            rows = left if side == 0 else right
            position = oracle._depths[side]
            if position >= len(rows):
                break
            t_oracle = oracle.update(side, rows[position])
            t_fr = fr.update(side, rows[position])
            assert t_oracle <= t_fr + 1e-9

    def test_exhaustion(self):
        instance = tiny_instance()
        bound = OracleBound(instance)
        bound.notify_exhausted(LEFT)
        t = bound.notify_exhausted(RIGHT)
        assert t == float("-inf")


class TestOracleOperator:
    def test_returns_correct_topk(self):
        instance = tiny_instance(seed=1)
        operator = oracle_operator(instance)
        got = top_scores(operator.top_k(5))
        expected = top_scores(
            naive_top_k(instance.left.tuples, instance.right.tuples,
                        instance.scoring, 5)
        )
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_no_operator_beats_the_oracle_with_same_strategy(self, name):
        """With PA pulling, the oracle bound terminates no later than any
        real bound using the same strategy."""
        instance = tiny_instance(seed=2)
        oracle = oracle_operator(instance)
        oracle.top_k(5)
        other = make_operator(name, instance)
        other.top_k(5)
        # Strategy differences allow small deviations per input, but the
        # oracle's sumDepths is a valid lower-ish reference.
        assert oracle.sum_depths <= other.sum_depths + 2

    def test_clairvoyant_oracle_below_certificate_opt(self):
        """The clairvoyant reference is a strict lower bound on legal OPT."""
        instance = tiny_instance(seed=4, n_left=60, n_right=60)
        clairvoyant = optimal_sum_depths(instance)
        legal = certificate_optimal_sum_depths(instance)
        assert clairvoyant <= legal


class TestCertificateOpt:
    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_empirical_optimality_ratio(self, seed):
        """Theorem 4.3, measured: FRPA within 2x of the legal optimum."""
        instance = tiny_instance(seed=seed, n_left=60, n_right=60)
        opt = certificate_optimal_sum_depths(instance)
        frpa = make_operator("FRPA", instance)
        frpa.top_k(instance.k)
        assert frpa.sum_depths <= 2 * opt + 4

    def test_certificate_requires_k_results(self):
        instance = tiny_instance(seed=0, n_left=5, n_right=5, num_keys=500, k=3)
        if instance.join_size() < 3:
            with pytest.raises(ValueError):
                certificate_optimal_sum_depths(instance)

    def test_certificate_opt_below_every_operator(self):
        instance = tiny_instance(seed=7, n_left=60, n_right=60)
        opt = certificate_optimal_sum_depths(instance)
        for name in sorted(OPERATORS):
            operator = make_operator(name, instance)
            operator.top_k(instance.k)
            assert opt <= operator.sum_depths
