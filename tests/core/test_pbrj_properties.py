"""Property and invariant tests for the PBRJ template itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naive import naive_top_k, top_scores
from repro.core.operators import OPERATORS, make_operator
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.relation.relation import RankJoinInstance, Relation
from repro.stats.trace import BoundTrace

unit = st.floats(0, 1, allow_nan=False)


def instance_from(keys_left, scores_left, keys_right, scores_right, k=1):
    left = Relation(
        "L", [RankTuple(key=k_, scores=(s,)) for k_, s in zip(keys_left, scores_left)]
    )
    right = Relation(
        "R", [RankTuple(key=k_, scores=(s,)) for k_, s in zip(keys_right, scores_right)]
    )
    return RankJoinInstance(left, right, SumScore(), k)


class TestOutputInvariants:
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_full_drain_equals_join_size(self, operator):
        instance = random_instance(
            n_left=80, n_right=80, e_left=1, e_right=1,
            num_keys=8, k=1, seed=0,
        )
        op = make_operator(operator, instance)
        drained = list(op)
        assert len(drained) == instance.join_size()

    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_output_sorted_even_with_ties(self, operator):
        # Many exact ties stress the group logic (S̄ equality) and the
        # emit tolerance.
        keys = [i % 3 for i in range(30)]
        scores = [round((i % 5) / 5, 3) for i in range(30)]
        instance = instance_from(keys, scores, keys, scores, k=1)
        op = make_operator(operator, instance)
        out = top_scores(list(op))
        assert out == sorted(out, reverse=True)

    def test_determinism(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=2, e_right=2,
            num_keys=20, k=10, cut=0.5, seed=9,
        )
        traces = []
        for __ in range(2):
            trace = BoundTrace()
            op = make_operator("FRPA", instance, trace=trace)
            op.top_k(10)
            traces.append([(e.side, e.bound) for e in trace.entries])
        assert traces[0] == traces[1]

    @given(
        keys=st.lists(st.integers(0, 3), min_size=1, max_size=20),
        scores=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_topk_matches_naive(self, keys, scores):
        values = scores.draw(
            st.lists(unit, min_size=len(keys), max_size=len(keys))
        )
        instance = instance_from(keys, values, keys, values, k=1)
        op = make_operator("a-FRPA", instance)
        got = top_scores(op.top_k(5))
        expected = top_scores(
            naive_top_k(instance.left.tuples, instance.right.tuples,
                        instance.scoring, 5)
        )
        assert got == pytest.approx(expected)


class TestDepthMonotonicity:
    @pytest.mark.parametrize("operator", ["HRJN*", "FRPA", "a-FRPA"])
    def test_depths_monotone_in_k(self, operator):
        instance = random_instance(
            n_left=300, n_right=300, e_left=2, e_right=2,
            num_keys=30, k=1, cut=0.5, seed=4,
        )
        previous = 0
        for k in (1, 3, 10, 30):
            op = make_operator(operator, instance)
            op.top_k(k)
            depths = op.sum_depths
            assert depths >= previous
            previous = depths

    def test_incremental_equals_batch(self):
        """K getNext calls == one top_k(K) call, result for result."""
        instance = random_instance(
            n_left=200, n_right=200, e_left=1, e_right=1,
            num_keys=20, k=10, cut=0.5, seed=2,
        )
        batch = make_operator("FRPA", instance).top_k(10)
        op = make_operator("FRPA", instance)
        incremental = [op.get_next() for __ in range(10)]
        assert top_scores(batch) == pytest.approx(
            top_scores([r for r in incremental if r])
        )


class TestMemoryAccounting:
    def test_high_water_marks(self):
        instance = random_instance(
            n_left=300, n_right=300, e_left=1, e_right=1,
            num_keys=10, k=10, cut=1.0, seed=1,
        )
        op = make_operator("FRPA", instance)
        op.top_k(10)
        memory = op.memory()
        assert [memory.hash_left, memory.hash_right] == op.depths()
        assert memory.output >= 10
        assert memory.total == (
            memory.hash_left + memory.hash_right + memory.output
        )

    def test_memory_in_stats(self):
        instance = random_instance(
            n_left=100, n_right=100, e_left=1, e_right=1,
            num_keys=10, k=3, seed=0,
        )
        op = make_operator("HRJN*", instance)
        op.top_k(3)
        assert op.stats().memory.total > 0

    def test_shallow_operator_buffers_less(self):
        instance = random_instance(
            n_left=500, n_right=500, e_left=1, e_right=1,
            num_keys=25, k=5, cut=0.25, seed=3,
        )
        frpa = make_operator("FRPA", instance)
        corner = make_operator("HRJN*", instance)
        frpa.top_k(5)
        corner.top_k(5)
        # Less I/O also means a smaller footprint — the robustness bonus.
        assert frpa.memory().total <= corner.memory().total
