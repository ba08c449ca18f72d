"""Shared fixtures for the sharded-execution test suite.

``SEED_WORKLOADS`` is the matrix the correctness invariant runs over:
TPC-H-style, zipf join skew, uniform synthetic, and anti-correlated
scores.  ``canonical_top_k`` is the serial top-k: the serial operators
release an exact-score tie in canonical identity order, as the sharded
engine's merge does, so the two lists must be equal as they come.
"""

from __future__ import annotations

import pytest

from repro.core.pbrj import result_identity
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    random_instance,
)
from repro.service import QuerySpec

WORKLOAD_BUILDERS = {
    "tpch": lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0)
    ),
    "zipf": lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005,
                       join_skew=0.9, seed=1)
    ),
    "uniform": lambda: random_instance(
        n_left=400, n_right=400, e_left=2, e_right=2,
        num_keys=40, k=12, seed=3,
    ),
    "anticorrelated": lambda: anti_correlated_instance(
        n_left=300, n_right=300, num_keys=30, k=10, seed=5,
    ),
}

SEED_WORKLOADS = sorted(WORKLOAD_BUILDERS)


@pytest.fixture(scope="session")
def workloads():
    """Workload name → instance, built once for the whole suite."""
    return {name: build() for name, build in WORKLOAD_BUILDERS.items()}


def canonical_top_k(instance, k: int, operator: str = "FRPA") -> list:
    """The serial top-k, exact-score ties in canonical identity order."""
    return QuerySpec(
        relations=(instance.left, instance.right), k=k, operator=operator
    ).build_operator().top_k(k)


def identity_view(results) -> list[tuple]:
    """Comparable projection: (score, canonical identity) per result."""
    return [(r.score, result_identity(r)) for r in results]
