"""Chaos-matrix leg for the any-k core (quarantinable via ``-m chaos``).

:class:`~repro.anyk.AnyKRankJoin` streamed under request chaos at shard
counts {2, 4} must stay bit-identical to the fault-free run — the same
invariant the PBRJ chaos matrix enforces, through the same harness, with
only ``operator="AnyK"`` new.
"""

from __future__ import annotations

import pytest

from repro.core.operators import ANYK_OPERATOR
from tests.resilience.harness import assert_chaos_case

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("shards", (2, 4))
@pytest.mark.parametrize("workload", ("uniform", "zipf"))
def test_anyk_chaos_matrix(workload, shards):
    assert_chaos_case(workload, shards, operator=ANYK_OPERATOR)
