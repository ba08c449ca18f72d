"""Streaming under chaos: faults mid-stream never corrupt the sequence.

Each case streams a session over a server whose request layer injects
errors on submit/poll/stream AND whose exec backend suffers seeded
worker faults, verifying on the raw (no client dedup) stream that every
event arrives exactly once, in order, bit-identical to the fault-free
serial run — already-streamed prefixes survive respawn-replay.
"""

import pytest

from repro.resilience import stream_chaos_run

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("backend,kind", [
    ("serial", "transient"),
    ("serial", "pipe-drop"),
    ("process", "worker-kill"),
])
def test_stream_is_exactly_once_under_faults(backend, kind):
    case = stream_chaos_run("uniform", 2, backend, kind, seed=0)
    assert case.matched, "streamed sequence diverged from the serial oracle"
    assert case.fired > 0, "no fault fired — vacuous case"
    assert case.kind == f"{kind}+stream"


def test_dense_request_chaos_is_ridden_through():
    # Half of all submit/poll/stream requests answered with injected
    # faults: the client's re-attach loop must absorb a dense schedule,
    # not just a single blip.
    case = stream_chaos_run(
        "anticorrelated", 2, "serial", "transient", seed=1, error_rate=0.5,
    )
    assert case.matched
    assert case.injected > 0, "request chaos never fired — vacuous case"
