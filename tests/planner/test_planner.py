"""Tests for the planner facade: enumeration, pinning, explainability."""

import numpy as np
import pytest

from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.obs import Observability
from repro.planner import Planner, PlannerConfig
from repro.relation.relation import Relation

from tests.planner.test_stats import zipf_relation


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
        # anyk + 1-shard pbrj + sharded pbrj with both partitioners.
        assert "anyk" in labels
        assert "pbrj/HRJN*" in labels
        assert "pbrj/FRPA x4 skew/serial" in labels
        assert len(decision.candidates) == 15
        assert decision.backend == "serial"  # the frozen harness reads it

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

    def test_pin_shards(self, instance):
        decision = Planner().plan(
            [instance.left, instance.right], 10, algorithm="pbrj", shards=4
        )
        assert decision.shards == 4

    def test_pin_operator_and_partitioner(self, instance):
        decision = Planner().plan(
            [instance.left, instance.right], 10,
            algorithm="pbrj", operator="FRPA", partitioner="skew",
        )
        assert decision.operator == "FRPA"
        pbrj_sharded = [
            e for e in decision.candidates if e.candidate.shards > 1
        ]
        assert pbrj_sharded
        assert all(e.candidate.partitioner == "skew" for e in pbrj_sharded)

    def test_unknown_algorithm_rejected(self, instance):
        with pytest.raises(InstanceError, match="unknown algorithm"):
            Planner().plan([instance.left, instance.right], 10, algorithm="nope")

    def test_needs_two_relations(self, instance):
        with pytest.raises(InstanceError, match="at least two"):
            Planner().plan([instance.left], 10)

    def test_decision_counter_increments(self, instance):
        obs = Observability()
        planner = Planner(obs=obs)
        decision = planner.plan([instance.left, instance.right], 10)
        count = obs.metrics.value(
            "planner_decisions_total",
            algorithm=decision.algorithm,
            shards=str(decision.shards),
        )
        assert count == 1

    def test_skew_partitioner_preferred_on_hot_keys(self):
        # One key owning most of the join: at a fixed sharded config the
        # skew-aware candidate must cost no more than plain hash.
        left = zipf_relation("L", n=1200, num_keys=30, z=1.8, seed=0)
        right = zipf_relation("R", n=1200, num_keys=30, z=1.8, seed=1)
        decision = Planner().plan([left, right], 10, algorithm="pbrj", shards=8)
        by_label = {e.candidate.label(): e.cost for e in decision.candidates}
        for operator in ("HRJN*", "FRPA"):
            skew = by_label[f"pbrj/{operator} x8 skew/serial"]
            hash_ = by_label[f"pbrj/{operator} x8 hash/serial"]
            assert skew <= hash_

    def test_planning_time_recorded(self, instance):
        decision = Planner().plan([instance.left, instance.right], 10)
        assert decision.planning_seconds > 0


class TestPlannerConfig:
    def test_restricting_choices_restricts_candidates(self, instance):
        config = PlannerConfig(
            shard_choices=(1, 2), operators=("HRJN*",), include_anyk=False,
        )
        decision = Planner(config=config).plan(
            [instance.left, instance.right], 10
        )
        for entry in decision.candidates:
            assert entry.candidate.algorithm == "pbrj"
            assert entry.candidate.operator == "HRJN*"
            assert entry.candidate.shards in (1, 2)


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
