#!/usr/bin/env python3
"""The paper's motivating scenario: a yelp-style travel ranking query.

    SELECT h.name, b.name, t.name
    FROM   Hotels h, Bars b, Theaters t
    WHERE  h.city = b.city AND b.city = t.city
    RANK BY 0.9*h.rating + 0.6*b.rating + 1.0*t.proximity
    LIMIT  5

The physical plan is a pipeline of binary rank join operators (Hotels ⋈
Bars feeding (Hotels ⋈ Bars) ⋈ Theaters) over the pre-weighted relations;
it returns the top results while reading only a prefix of each input.  The
same plan with HRJN* operators reads the *entire* input — venue quality is
scarce (most ratings are mediocre), so the corner bound's assumption that a
perfect partner may still appear never pays off.  Finally the same query
is asked as one declarative ``QuerySpec`` (a ``WeightedSum`` over the
chain, planned by the cost-based planner) and gives the same top-5.

Run:  python examples/travel_ranking.py
"""

import numpy as np

from repro import Pipeline, QuerySpec, RankTuple, Relation, WeightedSum

WEIGHTS = {"hotels": 0.9, "bars": 0.6, "theaters": 1.0}
SIZES = {"hotels": 1500, "bars": 2500, "theaters": 800}
K = 5


def make_city_relation(
    name: str, n: int, n_cities: int, seed: int, weight: float = 1.0
) -> Relation:
    """A venue relation: city join key, one quality score (times
    ``weight``), a name payload."""
    rng = np.random.default_rng(seed)
    cities = rng.integers(0, n_cities, size=n)
    # Quality is scarce: most venues mediocre, a few excellent.
    scores = rng.beta(2.0, 5.0, size=n).round(3)
    tuples = [
        RankTuple(
            key=int(city),
            scores=(weight * float(score),),
            payload={"city": int(city), "name": f"{name}-{index}"},
        )
        for index, (city, score) in enumerate(zip(cities, scores))
    ]
    return Relation(name, tuples)


def venues(weighted: bool) -> list[Relation]:
    """Hotels, bars and theaters; scores pre-scaled by ``WEIGHTS`` if
    ``weighted``."""
    return [
        make_city_relation(name[:-1], SIZES[name], 40, seed=seed,
                           weight=WEIGHTS[name] if weighted else 1.0)
        for seed, name in enumerate(SIZES, start=1)
    ]


def main() -> None:
    # intermediate (h ⋈ b) re-keyed on city
    plan = Pipeline(venues(weighted=True), ["city"], operator="a-FRPA")
    results = plan.top_k(K)
    print("Pipeline(a-FRPA): (hotel ⋈ bar) ⋈ theater on city")

    print("\ntop-5 (hotel, bar, theater) triples:")
    for rank, result in enumerate(results, start=1):
        payload = result.merged_payload()
        print(f"  {rank}. score={result.score:.3f}  city={payload['city']:3d}  "
              f"last-joined venue: {payload['name']}")

    print("\ntuples read per input (a-FRPA plan):")
    for name, depth in zip(SIZES, plan.base_depths()):
        print(f"  {name:9s} {depth:5d} / {SIZES[name]}")
    total = sum(SIZES.values())
    print(f"  total    {plan.sum_depths:6d} / {total} "
          f"({100 * plan.sum_depths / total:.0f}%)")

    corner_plan = Pipeline(venues(weighted=True), ["city"], operator="HRJN*")
    corner_plan.top_k(K)
    print(f"\nsame query with HRJN* operators: {corner_plan.sum_depths} / {total} "
          f"tuples read ({100 * corner_plan.sum_depths / total:.0f}%)")
    print("the feasible-region bound learns that no perfect partner exists; "
          "the corner bound keeps hoping.")

    spec = QuerySpec(venues(weighted=False), K, WeightedSum(WEIGHTS.values()),
                     algorithm="auto", join_attrs=("city", "city"))
    answer = spec.build_operator().top_k(K)
    assert [r.score for r in answer] == [r.score for r in results]
    print(f"\nas one QuerySpec (planned: {spec.resolve().plan_summary()}): "
          "the same top-5 scores")


if __name__ == "__main__":
    main()
