"""Tests for the planner facade: enumeration, pinning, explainability,
bounded caches."""

import numpy as np
import pytest

from repro.core.scoring import WeightedSum
from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.obs import Observability
from repro.planner import Planner
from repro.relation.relation import Relation


@pytest.fixture
def instance():
    return random_instance(
        n_left=400, n_right=400, e_left=2, e_right=2,
        num_keys=40, k=10, seed=0,
    )


class TestPlanBinary:
    def test_decision_is_cheapest_candidate(self, instance):
        decision = Planner().plan([instance.left, instance.right], 10)
        assert decision.chosen is decision.candidates[0]
        assert all(
            decision.chosen.cost <= entry.cost for entry in decision.candidates
        )

    def test_deterministic(self, instance):
        planner = Planner()
        a = planner.plan([instance.left, instance.right], 10)
        b = planner.plan([instance.left, instance.right], 10)
        assert a.summary() == b.summary()
        assert [c.cost for c in a.candidates] == [c.cost for c in b.candidates]

    def test_enumerates_all_axes(self, instance):
        decision = Planner().plan([instance.left, instance.right], 10)
        labels = {entry.candidate.label() for entry in decision.candidates}
        # A core and an operator: nothing else is enumerated.
        assert labels == {"anyk", "pbrj/HRJN*", "pbrj/FRPA"}
        assert len(decision.candidates) == 3
        # Constants the frozen harness reads.
        assert (decision.shards, decision.partitioner, decision.backend) == (
            1, "hash", "serial"
        )

    def test_table_is_explainable(self, instance):
        decision = Planner().plan([instance.left, instance.right], 10)
        table = decision.table()
        assert decision.summary() in table
        assert "*" in table  # the chosen row is marked
        assert "est cost" in table
        assert table.count("\n") >= len(decision.candidates)

    def test_pin_algorithm_anyk(self, instance):
        decision = Planner().plan(
            [instance.left, instance.right], 10, algorithm="anyk"
        )
        assert decision.algorithm == "anyk"
        assert all(
            entry.candidate.algorithm == "anyk" for entry in decision.candidates
        )

    def test_pin_algorithm_pbrj(self, instance):
        # ``algorithm=`` is the one way to narrow the candidates.
        decision = Planner().plan(
            [instance.left, instance.right], 10, algorithm="pbrj"
        )
        assert sorted(e.candidate.label() for e in decision.candidates) == [
            "pbrj/FRPA", "pbrj/HRJN*",
        ]

    def test_unknown_algorithm_rejected(self, instance):
        with pytest.raises(InstanceError, match="unknown algorithm"):
            Planner().plan([instance.left, instance.right], 10, algorithm="nope")

    def test_needs_two_relations(self, instance):
        with pytest.raises(InstanceError, match="at least two"):
            Planner().plan([instance.left], 10)

    def test_join_attrs_refused(self, instance):
        # Two relations join on the tuple key; a payload join would be
        # priced for a plan no operator runs.
        with pytest.raises(InstanceError, match="binary queries join on the tuple key"):
            Planner().plan([instance.left, instance.right], 10, join_attrs=("p",))

    def test_decision_counter_increments(self, instance):
        obs = Observability()
        planner = Planner(obs=obs)
        decision = planner.plan([instance.left, instance.right], 10)
        count = obs.metrics.value(
            "planner_decisions_total", algorithm=decision.algorithm
        )
        assert count == 1

    def test_planning_time_recorded(self, instance):
        decision = Planner().plan([instance.left, instance.right], 10)
        assert decision.planning_seconds > 0


class TestCachesAreBounded:
    def test_per_request_weights_do_not_grow_the_depth_cache(self, instance):
        # A `serve --algorithm auto` server sees one WeightedSum per request.
        from repro.planner import estimate

        relations = [instance.left, instance.right]
        planner = Planner()

        def weights(i):
            return WeightedSum([1.0, 1.0, 1.0, 1.0 + i / 5000])

        first = planner.plan(relations, 10, weights(0))
        for i in range(1, 5000):
            planner.plan(relations, 10, weights(i))
            assert len(estimate._depth_cache) <= estimate.CACHE_LIMIT
        assert len(estimate._depth_cache) == estimate.CACHE_LIMIT == 1024
        # weights(0) was evicted long ago; planning it again recomputes the
        # same estimate and reaches the identical decision.
        assert planner.plan(relations, 10, weights(0)) == first


class TestPlanMultiway:
    def _chain(self):
        rng = np.random.default_rng(0)

        def mk(name, n, attrs):
            from repro.core.tuples import RankTuple

            rows = []
            for __ in range(n):
                payload = {a: int(rng.integers(0, 8)) for a in attrs}
                rows.append(RankTuple(
                    key=payload[attrs[0]], scores=(float(rng.random()),),
                    payload=payload,
                ))
            return Relation(name, rows)

        return [mk("A", 120, ["p"]), mk("B", 90, ["p", "q"]),
                mk("C", 60, ["q"])]

    def test_multiway_with_chain_attrs(self):
        decision = Planner().plan(self._chain(), 5, join_attrs=("p", "q"))
        assert decision.shards == 1
        assert decision.algorithm in ("pbrj", "anyk")
        assert len(decision.candidates) == 2

    def test_multiway_without_attrs_is_pessimistic(self):
        relations = self._chain()
        decision = Planner().plan(relations, 5)
        total = sum(len(r) for r in relations)
        assert decision.depth == total
