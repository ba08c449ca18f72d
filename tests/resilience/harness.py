"""Chaos-test harness: the pytest face of :mod:`repro.resilience.chaos`.

The heavy lifting (seed workloads, seeded request chaos, bit-identity
verification against the fault-free run) lives in the library so
``python -m repro chaos`` and the pytest suite share one implementation.
"""

from __future__ import annotations

from repro.resilience import (
    SEED_WORKLOADS,
    ChaosCase,
    seed_instance,
    stream_chaos_run,
)

#: The acceptance matrix: every seed workload × request-chaos seeds {2, 4}
#: (two fault schedules per workload).
CHAOS_WORKLOADS = SEED_WORKLOADS
CHAOS_SEEDS = (2, 4)


def assert_chaos_case(
    workload: str, *, seed: int = 0, operator: str = "FRPA"
) -> ChaosCase:
    """Run one chaos case and assert the resilience invariant.

    The streamed event sequence must be bit-identical to the fault-free
    run, and at least one injected fault must actually have fired — a
    chaos test whose fault never triggers is vacuous, so it fails loudly
    instead.
    """
    case = stream_chaos_run(workload, seed=seed, operator=operator)
    assert case.matched, (
        f"{workload} via {operator}, chaos seed {seed}: streamed sequence "
        f"diverged from the fault-free run (injected={case.injected}, "
        f"resumed={case.resumed})"
    )
    assert case.injected > 0, (
        f"{workload} via {operator}, chaos seed {seed}: no injected fault "
        f"fired — the case is vacuous"
    )
    # The client hangs up after every event: one resume per result.
    assert case.resumed >= seed_instance(workload).k
    return case
