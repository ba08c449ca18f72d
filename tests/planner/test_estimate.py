"""Tests for the planner's estimator: join count, terminal score, depths
and the join-count cache (the depth cache: ``test_planner.py``)."""

import numpy as np
import pytest

from repro.core.naive import naive_top_k
from repro.core.operators import hrjn_star
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.planner import estimate
from repro.planner.estimate import (
    clear_stats_caches,
    estimate_depths,
    estimate_terminal_score,
    join_count,
)
from repro.relation.relation import KEY_ATTR, Relation


def relation(name, rows, key_attr="k"):
    return Relation(
        name,
        [
            RankTuple(key=p[key_attr], scores=s, payload=dict(p))
            for p, s in rows
        ],
    )


def zipf_relation(name="Z", n=2000, num_keys=50, z=1.2, seed=0):
    """A relation whose join keys follow a Zipf(z) distribution."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_keys + 1, dtype=float)
    weights = ranks ** -z
    weights /= weights.sum()
    keys = rng.choice(num_keys, size=n, p=weights)
    scores = rng.random((n, 2))
    return Relation.from_arrays(name, keys.tolist(), scores)


class TestJoinCardinality:
    def test_exact_binary(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=1, e_right=1,
            num_keys=20, k=1, seed=0,
        )
        assert join_count([instance.left, instance.right]) == instance.join_size()

    def test_chain_exact_for_two(self):
        a = relation("A", [({"k": 1}, (0.5,)), ({"k": 1}, (0.4,))])
        b = relation("B", [({"k": 1}, (0.9,))])
        assert join_count([a, b], ("k",)) == 2

    def test_chain_independence_for_three(self):
        a = relation("A", [({"p": 0}, (0.5,))] * 4, key_attr="p")
        b = relation("B", [({"p": 0, "q": 0}, (0.5,))] * 2, key_attr="p")
        c = relation("C", [({"q": 0}, (0.5,))] * 3, key_attr="q")
        # True size = 4*2*3 = 24; estimate = (4*2)*(2*3)/2 = 24 (exact for
        # single-valued keys).
        assert join_count([a, b, c], ("p", "q")) == pytest.approx(24)

    def test_arity_validation(self):
        a = relation("A", [({"k": 1}, (0.5,))])
        with pytest.raises(ValueError):
            join_count([a])
        with pytest.raises(ValueError):
            join_count([a, a], ("k", "k"))


class TestJoinProfile:
    """The join's whole profile is one number."""

    def test_join_size_exact(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=1, e_right=1,
            num_keys=20, k=1, seed=2,
        )
        assert join_count([instance.left, instance.right]) == instance.join_size()

    def test_disjoint_keys_empty_join(self):
        rng = np.random.default_rng(0)
        left = Relation.from_arrays("L", [1, 2], rng.random((2, 1)))
        right = Relation.from_arrays("R", [3, 4], rng.random((2, 1)))
        assert join_count([left, right]) == 0

    def test_counted_once_per_content(self, monkeypatch):
        calls = []
        real = estimate._edge_count
        monkeypatch.setattr(
            estimate, "_edge_count",
            lambda *edge: calls.append(1) or real(*edge),
        )
        left, right = zipf_relation("L", seed=3), zipf_relation("R", seed=4)
        twin = Relation("L2", list(left.tuples))  # equal content, new object
        assert join_count([left, right]) == join_count([twin, right])
        assert len(calls) == 1
        clear_stats_caches()
        join_count([left, right])
        assert len(calls) == 2

    def test_cache_is_bounded_oldest_out(self):
        rng = np.random.default_rng(0)
        right = Relation.from_arrays("R", [0], rng.random((1, 1)))
        first = Relation.from_arrays("L", [0], np.array([[0.0]]))
        join_count([first, right])
        first_key = (first.fingerprint(), right.fingerprint(), (KEY_ATTR,))
        assert first_key in estimate._join_counts
        for i in range(1, estimate.CACHE_LIMIT + 1):
            left = Relation.from_arrays(
                "L", [0], np.array([[i / (2 * estimate.CACHE_LIMIT)]])
            )
            assert join_count([left, right]) == 1
        assert len(estimate._join_counts) == estimate.CACHE_LIMIT
        assert first_key not in estimate._join_counts


class TestTerminalScore:
    def test_close_to_truth_on_random_instance(self):
        instance = random_instance(
            n_left=800, n_right=800, e_left=1, e_right=1,
            num_keys=40, k=10, cut=1.0, seed=3,
        )
        true_term = naive_top_k(
            instance.left.tuples, instance.right.tuples, SumScore(), 10
        )[-1].score
        estimated = estimate_terminal_score(
            [instance.left, instance.right],
            instance.join_size(),
            10,
            samples=8000,
            seed=0,
        )
        assert estimated == pytest.approx(true_term, abs=0.15)

    def test_rejects_infeasible_k(self):
        a = relation("A", [({"k": 1}, (0.5,))])
        with pytest.raises(ValueError):
            estimate_terminal_score([a], 1, 5)

    def test_rejects_empty_relation(self):
        a = relation("A", [({"k": 1}, (0.5,))])
        b = Relation("B", [])
        with pytest.raises(ValueError):
            estimate_terminal_score([a, b], 10, 1)


class TestBinaryDepths:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_factor_of_actual_hrjn_star(self, seed):
        instance = random_instance(
            n_left=600, n_right=600, e_left=1, e_right=1,
            num_keys=30, k=10, cut=1.0, seed=seed,
        )
        predicted = estimate_depths([instance.left, instance.right], 10)
        operator = hrjn_star(instance)
        operator.top_k(10)
        actual = operator.sum_depths
        # Corner-model estimates track HRJN* within a small factor.
        assert predicted.sum_depths <= 5 * actual
        assert actual <= 5 * predicted.sum_depths + 50

    def test_depths_bounded_by_relation_sizes(self):
        instance = random_instance(
            n_left=100, n_right=50, e_left=2, e_right=2,
            num_keys=5, k=5, seed=1,
        )
        predicted = estimate_depths([instance.left, instance.right], 5)
        assert predicted.depths[0] <= 100
        assert predicted.depths[1] <= 50


class TestBinaryDepthsDegenerate:
    """Graceful degradation: the planner feeds arbitrary instances here,
    so degenerate inputs must produce a full-scan estimate, not raise."""

    def _estimate(self, left_rows, right_rows, k):
        left = relation("L", left_rows) if left_rows else Relation("L", [])
        right = relation("R", right_rows) if right_rows else Relation("R", [])
        return estimate_depths([left, right], k)

    def test_empty_relation_full_scan(self):
        predicted = self._estimate([({"k": 1}, (0.5,))], [], k=1)
        assert predicted.depths == (1, 0)
        assert predicted.terminal_score == float("-inf")
        assert predicted.join_size == 0

    def test_both_empty(self):
        predicted = self._estimate([], [], k=1)
        assert predicted.depths == (0, 0)
        assert predicted.sum_depths == 0

    def test_single_tuple_each_side(self):
        predicted = self._estimate(
            [({"k": 1}, (0.7,))], [({"k": 1}, (0.3,))], k=1
        )
        assert predicted.depths == (1, 1)
        assert predicted.join_size == 1

    def test_join_smaller_than_k_full_scan(self):
        predicted = self._estimate(
            [({"k": 1}, (0.7,)), ({"k": 2}, (0.6,))],
            [({"k": 1}, (0.3,))],
            k=5,
        )
        assert predicted.depths == (2, 1)
        assert predicted.terminal_score == float("-inf")

    def test_all_equal_scores(self):
        rows = [({"k": i % 3}, (0.5,)) for i in range(30)]
        predicted = self._estimate(rows, rows, k=5)
        assert 1 <= predicted.depths[0] <= 30
        assert 1 <= predicted.depths[1] <= 30
        assert predicted.join_size >= 5


class TestChainDepths:
    def _chain(self):
        rng = np.random.default_rng(0)
        def mk(name, n, left, right):
            rows = []
            for __ in range(n):
                payload = {}
                if left:
                    payload[left] = int(rng.integers(0, 10))
                if right:
                    payload[right] = int(rng.integers(0, 10))
                rows.append((payload, (float(rng.random()),)))
            return relation(name, rows, left or right)
        return [mk("A", 200, None, "p"), mk("B", 150, "p", "q"),
                mk("C", 100, "q", None)], ("p", "q")

    def test_estimates_all_relations(self):
        relations, attrs = self._chain()
        predicted = estimate_depths(relations, 10, join_attrs=attrs)
        assert len(predicted.depths) == 3
        assert all(d >= 1 for d in predicted.depths)
        assert predicted.join_size > 10

    def test_infeasible_k_reads_everything(self):
        a = relation("A", [({"p": 0}, (0.5,))], key_attr="p")
        b = relation("B", [({"p": 1}, (0.5,))], key_attr="p")  # join is empty
        predicted = estimate_depths([a, b], 1, join_attrs=("p",))
        assert predicted.depths == (1, 1)
        assert predicted.terminal_score == float("-inf")

    def test_deeper_k_means_deeper_estimate(self):
        relations, attrs = self._chain()
        shallow = estimate_depths(relations, 1, join_attrs=attrs)
        deep = estimate_depths(relations, 100, join_attrs=attrs)
        assert deep.sum_depths >= shallow.sum_depths
