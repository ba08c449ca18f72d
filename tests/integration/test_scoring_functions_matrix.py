"""Cross-product matrix: every operator x every scoring function.

The paper assumes only monotonicity of S; the implementation should too.
This suite runs the full operator zoo against each scoring function on a
shared instance and checks the answers against the naive oracle — catching
any additive-only assumption that leaked into a general code path.
"""

import pytest

from repro.core.naive import naive_top_k, top_scores
from repro.core.operators import OPERATORS, make_operator
from repro.core.scoring import (
    AverageScore,
    CallableScore,
    MinScore,
    ProductScore,
    SumScore,
    WeightedSum,
)
from repro.data.workload import random_instance

SCORINGS = [
    ("sum", SumScore()),
    ("weighted", WeightedSum([0.4, 0.1, 0.3, 0.2])),
    ("average", AverageScore()),
    ("min", MinScore()),
    ("product", ProductScore()),
    ("max", CallableScore(lambda v: max(v), name="max")),
]


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("label,scoring", SCORINGS)
def test_operator_scoring_matrix(operator, label, scoring):
    instance = random_instance(
        n_left=120, n_right=120, e_left=2, e_right=2,
        num_keys=12, k=8, cut=0.6, seed=11, scoring=scoring,
    )
    op = make_operator(operator, instance)
    got = top_scores(op.top_k(8))
    expected = top_scores(
        naive_top_k(instance.left.tuples, instance.right.tuples, scoring, 8)
    )
    assert got == pytest.approx(expected), f"{operator} with {label} scoring"


@pytest.mark.parametrize("label,scoring", SCORINGS)
def test_depth_sanity_across_scorings(label, scoring):
    """Bound-aware operators never read more than the corner-bound one
    would need at worst (full input)."""
    instance = random_instance(
        n_left=150, n_right=150, e_left=2, e_right=2,
        num_keys=15, k=5, cut=0.6, seed=12, scoring=scoring,
    )
    total = len(instance.left) + len(instance.right)
    for operator in ("FRPA", "a-FRPA"):
        op = make_operator(operator, instance)
        op.top_k(5)
        assert op.sum_depths <= total
