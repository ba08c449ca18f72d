"""Golden plan costs: the planner without a shard axis prices every
unsharded plan exactly as the parent did, and picks the parent's cheapest.

``plan_golden.json`` was recorded from the last commit whose planner still
enumerated shard counts and partitioners (PR 27), *before* any ``src/``
edit of the PR that deleted those axes.  For each instance it holds the
parent's **unsharded** candidates in the parent's own order — label,
``cost``, ``detail["depth"]``, ``detail["compute"]``, floats as JSON
``repr`` so they round-trip bit for bit — under ``algorithm`` ∈ {auto,
pbrj, anyk}.  A one-share plan multiplied its compute by ``1.0 ** (1 + γ)``
and added three zero terms, so nothing may move; and the plan chosen now
must be the parent's cheapest unsharded candidate.

Re-record only from a commit whose costs you trust::

    PYTHONPATH=<that>/src:. python tests/planner/test_plan_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.scoring import SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    random_instance,
)
from repro.planner import (
    Planner,
    clear_depth_cache,
    clear_stats_caches,
    set_coefficients,
)
from repro.planner.cost import CostCoefficients
from repro.relation.relation import Relation

from tests.exec.conftest import WORKLOAD_BUILDERS

GOLDEN_PATH = Path(__file__).with_name("plan_golden.json")

ALGORITHMS = ("auto", "pbrj", "anyk")


def _binary(build):
    def query():
        instance = build()
        return [instance.left, instance.right], instance.k, instance.scoring, ()
    return query


def _tpch(e, scale, **extra):
    return _binary(lambda: lineitem_orders_instance(
        WorkloadParams(e=e, c=0.5, z=0.5, k=10, scale=scale, seed=0, **extra)
    ))


def _chain():
    rng = np.random.default_rng(0)

    def relation(name, n, attrs):
        rows = []
        for __ in range(n):
            payload = {a: int(rng.integers(0, 8)) for a in attrs}
            rows.append(RankTuple(
                key=payload[attrs[0]], scores=(float(rng.random()),),
                payload=payload,
            ))
        return Relation(name, rows)

    relations = [relation("A", 120, ["p"]), relation("B", 90, ["p", "q"]),
                 relation("C", 60, ["q"])]
    return relations, 5, SumScore(), ("p", "q")


#: name → () → (relations, k, scoring, join_attrs).  The four seed
#: workloads, TPC-H e ∈ {1, 2, 3} at two scales, the harness's
#: anti-correlated generator and weighted scoring, a hot-key instance, the
#: uniform e=5 instance of the sharding trials, and a 3-way chain.
INSTANCES = {
    **{f"seed_{name}": _binary(build) for name, build in WORKLOAD_BUILDERS.items()},
    **{
        f"tpch_e{e}_s{scale}": _tpch(e, scale)
        for e in (1, 2, 3) for scale in (0.0005, 0.002)
    },
    "tpch_e2_join_skew_1.5": _tpch(2, 0.0005, join_skew=1.5),
    "tpch_e2_weighted": _binary(lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0),
        scoring=WeightedSum([0.4, 0.1, 0.3, 0.2]),
    )),
    "anticorrelated_wide": _binary(lambda: anti_correlated_instance(
        n_left=1000, n_right=1000, num_keys=250, k=10, seed=0,
    )),
    "uniform_e5": _binary(lambda: random_instance(
        n_left=150, n_right=150, e_left=5, e_right=5, num_keys=40, k=8, seed=0,
    )),
    "chain_3way": _chain,
}


def plans(name):
    relations, k, scoring, join_attrs = INSTANCES[name]()
    record = {}
    for algorithm in ALGORITHMS:
        set_coefficients(CostCoefficients())
        clear_stats_caches()
        clear_depth_cache()
        decision = Planner().plan(
            relations, k, scoring, algorithm=algorithm, join_attrs=join_attrs
        )
        record[algorithm] = [
            {
                "label": entry.candidate.label(),
                "cost": entry.cost,
                "depth": entry.detail["depth"],
                "compute": entry.detail["compute"],
            }
            for entry in decision.candidates
            # The parent also lists sharded candidates; they are not recorded.
            if getattr(entry.candidate, "shards", 1) == 1
        ]
        record[algorithm + "_chosen"] = decision.summary()
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_unsharded_costs_match_parent(golden, name):
    record = plans(name)
    for algorithm in ALGORITHMS:
        # Exact float equality: json round-trips a float's repr.
        assert record[algorithm] == golden[name][algorithm]
        # ... and what is chosen is the parent's cheapest unsharded plan
        # (the parent itself may have chosen a sharded one).
        assert record[algorithm + "_chosen"] == golden[name][algorithm][0]["label"]


def test_golden_covers_every_instance(golden):
    assert sorted(golden) == sorted(INSTANCES)
    assert len(golden) >= 12
    binary = [name for name in golden if name != "chain_3way"]
    assert all(len(golden[name]["auto"]) == 3 for name in binary)
    # The parent did choose sharded plans: the deleted axis was live.
    assert any(
        " x" in golden[name][algorithm + "_chosen"]
        for name in golden for algorithm in ALGORITHMS
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text("{\n" + ",\n".join(  # one instance per line
        f" {json.dumps(name)}: {json.dumps(plans(name))}" for name in sorted(INSTANCES)
    ) + "\n}\n")
    print(f"recorded {len(INSTANCES)} instances -> {GOLDEN_PATH}")
