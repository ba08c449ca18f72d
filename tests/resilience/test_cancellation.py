"""Cancelling a session mid-flight: clean CANCELLED state, no cache entry,
no process left behind."""

from __future__ import annotations

import multiprocessing

from repro.core.operators import make_operator
from repro.data.workload import random_instance
from repro.service import QueryService
from repro.service.session import QuerySession, SessionState


def make_instance():
    return random_instance(
        n_left=300, n_right=300, e_left=2, e_right=2,
        num_keys=30, k=10, seed=17,
    )


def test_cancel_mid_flight_leaves_a_clean_cancelled_session():
    instance = make_instance()
    engine = make_operator("FRPA", instance)
    service = QueryService(cache_capacity=0)
    session = QuerySession("c1", engine, instance.k, quantum=8)
    service.admit(session)

    for _ in range(3):
        assert service.tick()
    assert session.live, "session drained before cancellation could race it"
    assert engine.pulls > 0

    assert service.cancel("c1")
    assert session.state is SessionState.CANCELLED
    assert not service.tick(), "a cancelled session must never be advanced"
    assert multiprocessing.active_children() == []


def test_cancelled_session_with_results_is_not_cached():
    """A cancelled run leaves nothing behind — no cache entry."""
    instance = make_instance()
    engine = make_operator("FRPA", instance)
    service = QueryService(cache_capacity=8)
    session = QuerySession(
        "c2", engine, instance.k, quantum=4, cache_key="cancelled-query",
    )
    service.admit(session)
    while session.live and not session.results:
        service.tick()
    assert session.results and session.live
    service.cancel("c2")
    assert session.state is SessionState.CANCELLED
    assert len(service.cache) == 0
