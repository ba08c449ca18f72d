"""Seed-workload invariant: the kernel routing table cannot move an
FR-family operator's answer or cost.

For each of the four seed workloads (tpch / zipf / uniform /
anticorrelated — see tests/exec/conftest.py) HRJN*, FRPA and a-FRPA must
produce an identical top-K (scores AND emission order) and identical
sumDepths under the shipped table and under the all-numpy one.  They do
by construction: none of them reaches an op with a numpy form (FR* reads
two maintained maxima, the carve has one form), which this test counts —
a bound that starts calling the bulk ops fails here before it can diverge.
"""

import pytest

from repro.core.operators import make_operator

from tests.conftest import numpy_calls
from tests.exec.conftest import WORKLOAD_BUILDERS

#: FR-family operators exercising corner, FR* and adaptive aFR bounds.
#: (PBRJ_FR^RR does call the bulk ops; the golden bound traces run it
#: under every routing table.)
OPERATORS_UNDER_TEST = ("HRJN*", "FRPA", "a-FRPA")


def _run(workload_name, operator_name):
    instance = WORKLOAD_BUILDERS[workload_name]()
    operator = make_operator(operator_name, instance)
    results = operator.top_k(instance.k)
    return (
        [(r.score, r.left.key, r.right.key) for r in results],
        operator.depths(),
    )


@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
@pytest.mark.parametrize("operator", OPERATORS_UNDER_TEST)
def test_identical_topk_and_sumdepths(workload, operator):
    shipped = _run(workload, operator)
    assert len(shipped[0]) > 0
    under_numpy = []
    assert numpy_calls(lambda: under_numpy.append(_run(workload, operator))) == 0
    # Same scores, same emission order, same stop decisions.
    assert under_numpy == [shipped]
