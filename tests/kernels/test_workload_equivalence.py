"""Seed-workload invariant: every kernel runs the operator stack to the
*same* answer and the *same* cost.

For each of the four seed workloads (tpch / zipf / uniform /
anticorrelated — see tests/exec/conftest.py) the FR-family operators must
produce an identical top-K (scores AND emission order) and identical
sumDepths under the ``python`` and ``numpy`` kernels, and under
size-aware ``auto`` dispatch (whose per-call tier choices must be
invisible in the results).  This is the strongest
form of the bit-identity claim: a single float divergence anywhere in the
bound pipeline changes a stopping decision and shows up here as a depth
mismatch.
"""

import pytest

from repro.core.operators import make_operator
from repro.kernels import use_backend

from tests.exec.conftest import WORKLOAD_BUILDERS

#: FR-family operators exercising corner, FR* and adaptive aFR bounds.
#: (PBRJ_FR^RR re-skylines the full seen set per pull — too slow for the
#: pure-python leg of this matrix; its bound geometry is covered by the
#: property tests.)
OPERATORS_UNDER_TEST = ("HRJN*", "FRPA", "a-FRPA")

#: Kernels compared against the "python" reference.
COMPARE = ("numpy", "auto")


def _run(workload_name, operator_name, backend):
    instance = WORKLOAD_BUILDERS[workload_name]()
    with use_backend(backend):
        operator = make_operator(operator_name, instance)
        results = operator.top_k(instance.k)
        depths = operator.depths()
    return (
        [(r.score, r.left.key, r.right.key) for r in results],
        (depths.left, depths.right),
    )


@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
@pytest.mark.parametrize("operator", OPERATORS_UNDER_TEST)
def test_identical_topk_and_sumdepths(workload, operator):
    py_results, py_depths = _run(workload, operator, "python")
    assert len(py_results) > 0
    for backend in COMPARE:
        results, depths = _run(workload, operator, backend)
        # Same scores, same emission order, same stop decisions.
        assert results == py_results, backend
        assert depths == py_depths, backend
