"""The chaos acceptance matrix (quarantinable via ``-m chaos``).

Every seed workload × request-chaos seeds {2, 4}, streamed off a live
server whose request layer injects seeded retryable errors, to a client
that hangs up after every event: the event sequence must be bit-identical to
the fault-free run with at least one fault actually fired.  These tests
boot servers and ride injected turbulence on purpose, so they carry the
``chaos`` marker — CI runs them in a dedicated step and a flaky
environment can quarantine them with ``-m "not chaos"`` without touching
the deterministic suite.
"""

from __future__ import annotations

import pytest

from repro.resilience import render_report, run_chaos_suite, stream_chaos_run
from tests.resilience.harness import (
    CHAOS_SEEDS,
    CHAOS_WORKLOADS,
    assert_chaos_case,
)

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("workload", CHAOS_WORKLOADS)
def test_chaos_matrix(workload, seed):
    assert_chaos_case(workload, seed=seed)


def test_chaos_runs_are_seed_reproducible():
    a = stream_chaos_run("uniform", seed=9)
    b = stream_chaos_run("uniform", seed=9)
    assert a == b and a.ok


def test_chaos_suite_entrypoint_smoke():
    cases = run_chaos_suite(workloads=("uniform",))
    assert len(cases) == 1 and cases[0].ok
    assert "1/1 cases bit-identical" in render_report(cases)
