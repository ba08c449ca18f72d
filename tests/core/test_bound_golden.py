"""Golden depths: patching the FR* bound must not move a stopping decision.

Per-input depths and ``bound_recomputations`` below were recorded from
the commit *before* the carve became a delta (recompute-everything FR*),
so ``sum_depths`` exactness and the Table 1 accounting are tier-1 facts,
not only benchmark ones.  ``a-FRPA`` with a cover budget of 4 or 16
crosses the exact → grid hand-over mid-query on every instance — the
point where an aliased cover operand has to become a copied one.
"""

import pytest

from repro.core.naive import naive_top_k
from repro.core.operators import make_operator
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    random_instance,
)

INSTANCES = {
    # The cold_fr2 / cold_frwide generator settings and a uniform draw.
    "tpch_e2": lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0)),
    "anticorrelated_e2": lambda: anti_correlated_instance(
        n_left=300, n_right=300, num_keys=30, k=10, seed=5),
    "uniform_e2": lambda: random_instance(
        n_left=400, n_right=400, e_left=2, e_right=2, num_keys=40, k=12, seed=3),
    "tpch_e3": lambda: lineitem_orders_instance(
        WorkloadParams(e=3, c=0.5, z=0.5, k=10, scale=0.0002, seed=0)),
    "uniform_e3": lambda: random_instance(
        n_left=200, n_right=200, e_left=3, e_right=3, num_keys=20, k=8, seed=7),
}

RUNS = (
    ("FRPA", {}),
    ("a-FRPA", {}),
    ("a-FRPA", {"max_cr_size": 4}),
    ("a-FRPA", {"max_cr_size": 16}),
    ("PBRJ_FR^RR", {}),
)

#: (instance, operator, max_cr_size) -> (depth_left, depth_right,
#: bound_recomputations), from the parent commit.
GOLDEN = {
    ("anticorrelated_e2", "FRPA", None): (233, 139, 826),
    ("anticorrelated_e2", "PBRJ_FR^RR", None): (233, 232, 1395),
    ("anticorrelated_e2", "a-FRPA", None): (233, 139, 826),
    ("anticorrelated_e2", "a-FRPA", 4): (300, 300, 1283),
    ("anticorrelated_e2", "a-FRPA", 16): (300, 292, 1267),
    ("tpch_e2", "FRPA", None): (405, 137, 773),
    ("tpch_e2", "PBRJ_FR^RR", None): (405, 404, 2427),
    ("tpch_e2", "a-FRPA", None): (405, 137, 773),
    ("tpch_e2", "a-FRPA", 4): (1677, 388, 2165),
    ("tpch_e2", "a-FRPA", 16): (473, 184, 919),
    ("tpch_e3", "FRPA", None): (882, 236, 1870),
    ("tpch_e3", "PBRJ_FR^RR", None): (882, 300, 3549),
    ("tpch_e3", "a-FRPA", None): (882, 236, 1870),
    ("tpch_e3", "a-FRPA", 4): (882, 236, 1870),
    ("tpch_e3", "a-FRPA", 16): (882, 236, 1870),
    ("uniform_e2", "FRPA", None): (84, 106, 376),
    ("uniform_e2", "PBRJ_FR^RR", None): (106, 106, 636),
    ("uniform_e2", "a-FRPA", None): (84, 106, 376),
    ("uniform_e2", "a-FRPA", 4): (84, 106, 376),
    ("uniform_e2", "a-FRPA", 16): (84, 106, 376),
    ("uniform_e3", "FRPA", None): (96, 92, 380),
    ("uniform_e3", "PBRJ_FR^RR", None): (96, 95, 573),
    ("uniform_e3", "a-FRPA", None): (96, 92, 380),
    ("uniform_e3", "a-FRPA", 4): (96, 92, 380),
    ("uniform_e3", "a-FRPA", 16): (96, 92, 380),
}


def run_case(instance_name, operator_name, kwargs):
    instance = INSTANCES[instance_name]()
    operator = make_operator(operator_name, instance, **kwargs)
    results = operator.top_k(instance.k)
    depths = operator.depths()
    return (
        (instance, operator, results),
        depths.left, depths.right, operator.stats().bound_recomputations,
    )


@pytest.mark.parametrize("key", sorted(GOLDEN, key=str), ids=str)
def test_depths_and_recomputations_match_parent(key):
    instance_name, operator_name, budget = key
    kwargs = {} if budget is None else {"max_cr_size": budget}
    (instance, operator, results), *measured = run_case(
        instance_name, operator_name, kwargs
    )
    assert tuple(measured) == GOLDEN[key]
    expected = naive_top_k(
        instance.left.tuples, instance.right.tuples, instance.scoring, instance.k
    )
    assert [(r.score, r.left.key, r.right.key) for r in results] == [
        (r.score, r.left.key, r.right.key) for r in expected
    ]
    if budget is not None:
        assert "grid" in operator.bound_scheme.cover_modes  # crossed over
