"""Streaming under chaos: faults mid-stream never corrupt the sequence.

Each case streams a session over a server whose request layer injects
errors on submit/stream, through a client that drops the connection after
every event, verifying on the raw (no client dedup) stream that every
event arrives exactly once, in order, bit-identical to the fault-free
run.
"""

import pytest

from repro.resilience import stream_chaos_run

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("operator", ["FRPA", "HRJN*"])
def test_stream_is_exactly_once_under_faults(operator):
    case = stream_chaos_run("uniform", 2, seed=0, operator=operator)
    assert case.matched, "streamed sequence diverged from the fault-free run"
    assert case.injected > 0, "no fault fired — vacuous case"


def test_dense_request_chaos_is_ridden_through():
    # Three of four submit/stream requests answered with injected faults:
    # the client's re-attach loop must absorb a dense schedule, not just a
    # single blip.
    case = stream_chaos_run("anticorrelated", 2, seed=1, error_rate=0.75)
    assert case.matched
    # K + 1 = 11 attaches have to get through; more faults than that fired.
    assert case.injected > 11, "request chaos was not dense"
