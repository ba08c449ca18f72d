#!/usr/bin/env python3
"""Watch a-FRPA adapt: exact covers → grid covers → coarser grids.

This example constructs an input whose feasible-region covers keep growing
(a long anti-correlated score staircase), runs a-FRPA with a small cover
budget, and prints the per-input cover mode and grid resolution as results
are produced — the FRPA → HRJN* morphing of Section 5.

Run:  python examples/adaptive_behavior.py
"""

import numpy as np

from repro import RankJoinInstance, RankTuple, Relation, SumScore
from repro.core.operators import a_frpa, frpa, hrjn_star


def anti_correlated_relation(name: str, n: int, num_keys: int, seed: int) -> Relation:
    """Anti-correlated 2-d scores: the worst case for cover sizes.

    Points hug the diagonal x + y ≈ 1 with jitter, so nearly every tuple
    is a skyline point and the feasible-region staircase keeps gaining
    steps — exactly the regime where exact covers outgrow any budget.
    """
    rng = np.random.default_rng(seed)
    first = rng.random(n)
    second = np.clip(1.0 - first + rng.normal(0, 0.05, n), 0.001, 1.0)
    keys = rng.integers(0, num_keys, size=n)
    return Relation(
        name,
        [
            RankTuple(key=int(k), scores=(float(a), float(b)))
            for k, a, b in zip(keys, first, second)
        ],
    )


def main() -> None:
    left = anti_correlated_relation("R1", 6000, 60, seed=1)
    right = anti_correlated_relation("R2", 6000, 60, seed=2)
    instance = RankJoinInstance(left, right, SumScore(), k=20)

    operator = a_frpa(instance, max_cr_size=64, resolution=64)
    bound = operator.bound_scheme
    print("a-FRPA with maxCRSize=64, L0=64 — cover state per result:\n")
    print(f"{'result':>6s} {'score':>7s} {'pulls':>6s} "
          f"{'left cover':>22s} {'right cover':>22s}")

    def describe(side: int) -> str:
        mode = bound.cover_modes[side]
        resolution = bound.cover_resolutions[side]
        size = len(bound._cr[side])
        if mode == "exact":
            return f"exact ({size} pts)"
        return f"grid res={resolution} ({size} pts)"

    for index in range(20):
        result = operator.get_next()
        if result is None:
            break
        print(
            f"{index + 1:>6d} {result.score:>7.3f} {operator.pulls:>6d} "
            f"{describe(0):>22s} {describe(1):>22s}"
        )

    print("\nthe morphing spectrum at K=20 (same instance):")
    contenders = [("FRPA (exact covers)", lambda: frpa(instance))]
    for budget in (256, 64, 16):
        contenders.append(
            (f"a-FRPA (budget {budget})",
             lambda budget=budget: a_frpa(instance, max_cr_size=budget))
        )
    contenders.append(("HRJN* (corner bound)", lambda: hrjn_star(instance)))
    for label, factory in contenders:
        op = factory()
        op.top_k(20)
        print(f"  {label:24s} sumDepths={op.sum_depths:6d} "
              f"time={op.timing().total:.3f}s")
    print("\nshrinking the cover budget morphs a-FRPA from the instance-"
          "optimal FRPA\ntoward the corner-bound HRJN*, trading I/O for "
          "bound-computation time.")


if __name__ == "__main__":
    main()
