"""Chaos-matrix leg for the any-k core (quarantinable via ``-m chaos``).

Satellite contract: :class:`~repro.anyk.AnyKRankJoin` under worker-kill
and transient faults at shard counts {2, 4} must stay bit-identical to
the fault-free serial run — the same invariant the PBRJ chaos matrix
enforces, through the same harness, with only ``operator="AnyK"`` new.
"""

from __future__ import annotations

import pytest

from repro.core.operators import ANYK_OPERATOR
from tests.resilience.harness import assert_chaos_case

pytestmark = pytest.mark.chaos

ANYK_KINDS = ("worker-kill", "transient")


@pytest.mark.parametrize("kind", ANYK_KINDS)
@pytest.mark.parametrize("shards", (2, 4))
@pytest.mark.parametrize("workload", ("uniform", "zipf"))
def test_anyk_chaos_matrix_serial(workload, shards, kind):
    assert_chaos_case(workload, shards, "serial", kind, operator=ANYK_OPERATOR)


@pytest.mark.parametrize("kind", ANYK_KINDS)
def test_anyk_chaos_process_backend(kind):
    assert_chaos_case("uniform", 2, "process", kind, operator=ANYK_OPERATOR)
