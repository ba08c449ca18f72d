"""The chaos acceptance matrix (quarantinable via ``-m chaos``).

Every seed workload × shard counts {2, 4} × both execution backends ×
every result-affecting fault kind: the faulted run must be bit-identical
to the fault-free run with at least one fault actually fired.  These
tests spawn process children and respawn them on purpose, so they carry
the ``chaos`` marker — CI runs them in a dedicated step and a flaky
environment can quarantine them with ``-m "not chaos"`` without touching
the deterministic suite.
"""

from __future__ import annotations

import pytest

from tests.resilience.harness import (
    CHAOS_BACKENDS,
    CHAOS_KINDS,
    CHAOS_SHARDS,
    CHAOS_WORKLOADS,
    assert_chaos_case,
    chaos_run,
)

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("kind", CHAOS_KINDS)
@pytest.mark.parametrize("backend", CHAOS_BACKENDS)
@pytest.mark.parametrize("shards", CHAOS_SHARDS)
@pytest.mark.parametrize("workload", CHAOS_WORKLOADS)
def test_chaos_matrix(workload, shards, backend, kind):
    assert_chaos_case(workload, shards, backend, kind)


def test_chaos_runs_are_seed_reproducible():
    a = chaos_run("uniform", 2, "serial", "worker-kill", seed=9)
    b = chaos_run("uniform", 2, "serial", "worker-kill", seed=9)
    assert (a.respawns, a.retries, a.matched) == (b.respawns, b.retries, b.matched)


def test_chaos_suite_entrypoint_smoke():
    from repro.resilience import run_chaos_suite

    cases = run_chaos_suite(
        workloads=("uniform",), shards=(2,), backends=("serial",),
        kinds=("transient",),
    )
    assert len(cases) == 1 and cases[0].ok


class TestReshardChaos:
    """Faults fired DURING a live re-shard migration must not break the
    bit-identity invariant: the adaptive engine replays the emitted prefix
    on the new topology under fault injection and must land exactly where
    the fault-free serial run lands."""

    @pytest.mark.parametrize("kind", ("transient", "worker-kill"))
    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_fault_during_migration(self, backend, kind):
        from repro.resilience import reshard_chaos_run

        case = reshard_chaos_run("uniform", 2, backend, kind)
        assert case.matched, (
            f"reshard under {kind} on {backend}: results diverged "
            f"(respawns={case.respawns}, retries={case.retries})"
        )
        assert case.reshards == 1
        assert case.fired > 0, "no injected fault fired during migration"

    def test_skewed_workload_reshard_under_fault(self):
        from repro.resilience import reshard_chaos_run

        case = reshard_chaos_run("zipf", 4, "serial", "worker-kill", seed=2)
        assert case.ok and case.reshards == 1

    def test_suite_entrypoint_grows_reshard_leg(self):
        from repro.resilience import run_chaos_suite

        cases = run_chaos_suite(
            workloads=("uniform",), shards=(2,), backends=("serial",),
            kinds=("transient",), reshard=True,
        )
        assert len(cases) == 2
        assert all(c.ok for c in cases)
        assert any(c.kind.endswith("+reshard") for c in cases)
