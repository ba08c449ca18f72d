#!/usr/bin/env python3
"""Quickstart: answer a top-K rank join with every operator in the library.

Builds the paper's default workload (synthetic skewed TPC-H, Lineitem ⋈
Orders on orderkey, summed score attributes), runs the naive baseline and
all five rank join operators, and compares their answers and I/O.

Run:  python examples/quickstart.py
"""

from repro import OPERATORS, WorkloadParams, lineitem_orders_instance, make_operator
from repro.core.naive import naive_top_k, top_scores


def main() -> None:
    # The paper's Table 2 defaults: e=2 score attributes, skew z=.5,
    # score cut c=.5, K=10 results.  scale=0.002 keeps this instant.
    params = WorkloadParams(e=2, z=0.5, c=0.5, k=10, scale=0.002, seed=42)
    instance = lineitem_orders_instance(params)
    print(f"instance: {instance}")
    print(f"  |Lineitem| = {len(instance.left):,}  |Orders| = {len(instance.right):,}")

    # Ground truth: materialize the full join and sort (what a system
    # without rank join operators would do — it reads *everything*).
    expected = naive_top_k(
        instance.left.tuples, instance.right.tuples, instance.scoring, instance.k
    )
    print(f"\ntop-{instance.k} scores (naive full join): "
          f"{[round(r.score, 3) for r in expected]}")

    print(f"\n{'operator':12s} {'correct':>8s} {'left':>7s} {'right':>7s} "
          f"{'sumDepths':>10s} {'time (s)':>9s}")
    for name in sorted(OPERATORS):
        operator = make_operator(name, instance)
        results = operator.top_k(instance.k)
        correct = top_scores(results) == top_scores(expected)
        left, right = operator.depths()
        timing = operator.timing()
        print(
            f"{name:12s} {str(correct):>8s} {left:>7d} "
            f"{right:>7d} {operator.sum_depths:>10d} {timing.total:>9.3f}"
        )

    total = len(instance.left) + len(instance.right)
    print(f"\n(naive reads all {total:,} tuples; rank join operators read a prefix)")


if __name__ == "__main__":
    main()
