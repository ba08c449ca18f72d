#!/usr/bin/env python3
"""Depth estimation and cost-based planning for a ranking query.

Uses the planner's estimator (:mod:`repro.planner.estimate`, after
Schnaitter, Spiegel & Polyzotis's depth-estimation work, which the paper
builds on) to predict how deep a rank join will read, compares the
prediction to an actual run, and prints the planner's cost table for a
binary join and a 3-way chain.

Run:  python examples/plan_advisor.py
"""

from repro.core.operators import hrjn_star
from repro.data.workload import WorkloadParams, lineitem_orders_instance, pipeline_tables
from repro.planner import Planner, estimate_depths


def binary_demo() -> None:
    params = WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.002, seed=0)
    instance = lineitem_orders_instance(params)
    relations = [instance.left, instance.right]
    estimate = estimate_depths(relations, params.k, instance.scoring)
    operator = hrjn_star(instance)
    operator.top_k(params.k)
    actual = operator.depths()
    print("binary instance (Lineitem ⋈ Orders, e=2, c=.5, K=10)")
    print(f"  estimated terminal score : {estimate.terminal_score:.3f}")
    print(f"  estimated join size      : {estimate.join_size:,.0f}")
    print(f"  estimated depths         : {estimate.depths} "
          f"(sum {estimate.sum_depths})")
    print(f"  actual HRJN* depths      : ({actual.left}, {actual.right}) "
          f"(sum {actual.sum_depths})")
    print(Planner().plan(relations, params.k, instance.scoring).table())


def chain_demo() -> None:
    params = WorkloadParams(e=1, c=0.5, z=0.5, k=10, scale=0.001, seed=0)
    tables = pipeline_tables(params)
    relations = [
        tables["lineitem"].to_relation("orderkey"),
        tables["orders"].to_relation("orderkey"),
        tables["customer"].to_relation("custkey"),
    ]
    attrs = ("orderkey", "custkey")

    estimate = estimate_depths(relations, params.k, join_attrs=attrs)
    print("\n3-way chain (L ⋈ O ⋈ C, e=1)")
    print(f"  estimated join size : {estimate.join_size:,.0f}")
    for rel, depth in zip(relations, estimate.depths):
        print(f"  est. depth {rel.name:9s}: {depth:6d} / {len(rel)}")
    print(Planner().plan(relations, params.k, join_attrs=attrs).table())


def main() -> None:
    binary_demo()
    chain_demo()


if __name__ == "__main__":
    main()
