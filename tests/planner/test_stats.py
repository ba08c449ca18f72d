"""Tests for the planner's one statistic: the cached exact join count."""

import numpy as np

from repro.data.workload import random_instance
from repro.plan import estimate
from repro.planner import clear_stats_caches, join_count, stats
from repro.relation.relation import Relation


def zipf_relation(name="Z", n=2000, num_keys=50, z=1.2, seed=0):
    """A relation whose join keys follow a Zipf(z) distribution."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_keys + 1, dtype=float)
    weights = ranks ** -z
    weights /= weights.sum()
    keys = rng.choice(num_keys, size=n, p=weights)
    scores = rng.random((n, 2))
    return Relation.from_arrays(name, keys.tolist(), scores)


class TestJoinProfile:
    """The join's whole profile is one number."""

    def test_join_size_exact(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=1, e_right=1,
            num_keys=20, k=1, seed=2,
        )
        assert join_count(instance.left, instance.right) == instance.join_size()

    def test_disjoint_keys_empty_join(self):
        rng = np.random.default_rng(0)
        left = Relation.from_arrays("L", [1, 2], rng.random((2, 1)))
        right = Relation.from_arrays("R", [3, 4], rng.random((2, 1)))
        assert join_count(left, right) == 0

    def test_counted_once_per_content(self, monkeypatch):
        calls = []
        real = estimate.join_cardinality
        monkeypatch.setattr(
            "repro.planner.stats.join_cardinality",
            lambda left, right: calls.append(1) or real(left, right),
        )
        left, right = zipf_relation("L", seed=3), zipf_relation("R", seed=4)
        twin = Relation("L2", list(left.tuples))  # equal content, new object
        assert join_count(left, right) == join_count(twin, right)
        assert len(calls) == 1
        clear_stats_caches()
        join_count(left, right)
        assert len(calls) == 2

    def test_cache_is_bounded_oldest_out(self):
        rng = np.random.default_rng(0)
        right = Relation.from_arrays("R", [0], rng.random((1, 1)))
        first = Relation.from_arrays("L", [0], np.array([[0.0]]))
        join_count(first, right)
        first_key = (first.fingerprint(), right.fingerprint())
        for i in range(1, stats.CACHE_LIMIT + 1):
            left = Relation.from_arrays("L", [0], np.array([[i / (2 * stats.CACHE_LIMIT)]]))
            assert join_count(left, right) == 1
        assert len(stats._join_counts) == stats.CACHE_LIMIT
        assert first_key not in stats._join_counts
