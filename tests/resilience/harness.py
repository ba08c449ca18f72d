"""Chaos-test harness: the pytest face of :mod:`repro.resilience.chaos`.

The heavy lifting (seed workloads, seeded fault schedules, bit-identity
verification against the fault-free serial run) lives in the library so
``python -m repro chaos`` and the pytest suite share one implementation.
This module re-exports that core plus the parametrization matrices the
chaos tests iterate over, so tests read as one line per axis:

    @pytest.mark.parametrize("workload", CHAOS_WORKLOADS)
    @pytest.mark.parametrize("shards", CHAOS_SHARDS)
    ...
    def test_case(workload, shards, backend, kind):
        assert_chaos_case(workload, shards, backend, kind)
"""

from __future__ import annotations

from repro.exec import BACKENDS
from repro.resilience import (  # noqa: F401 - re-exported for the suite
    CHAOS_KINDS,
    SEED_WORKLOADS,
    ChaosCase,
    chaos_plan,
    chaos_run,
    emission_view,
    reference_run,
    seed_instance,
)

#: The acceptance matrix: every seed workload × shard counts {2, 4} ×
#: both execution backends × every result-affecting fault kind.
CHAOS_WORKLOADS = SEED_WORKLOADS
CHAOS_SHARDS = (2, 4)
CHAOS_BACKENDS = BACKENDS


def assert_chaos_case(
    workload: str,
    shards: int,
    backend: str,
    kind: str,
    *,
    seed: int = 0,
    operator: str = "FRPA",
) -> ChaosCase:
    """Run one chaos case and assert the resilience invariant.

    The faulted run must be bit-identical (scores, emission order,
    canonical identities) to the fault-free serial-backend run, and at
    least one injected fault must actually have fired — a chaos test
    whose fault never triggers is vacuous, so it fails loudly instead.
    """
    case = chaos_run(workload, shards, backend, kind, seed=seed, operator=operator)
    assert case.matched, (
        f"{workload} x{shards} on {backend} under {kind}: results diverged "
        f"from the fault-free run (respawns={case.respawns}, "
        f"retries={case.retries}, degraded={case.degraded})"
    )
    assert case.fired > 0, (
        f"{workload} x{shards} on {backend} under {kind}: no injected "
        f"fault fired — the case is vacuous"
    )
    if kind in ("worker-kill", "pipe-drop"):
        assert case.respawns > 0, "lost-worker fault fired without a respawn"
    return case
