"""Session-level deadlines: graceful expiry swept by the query service."""

from __future__ import annotations

from repro.obs import Observability
from repro.service.service import QueryService
from repro.service.session import QuerySession, SessionState
from tests.service.conftest import make_spec


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_session(session_id: str, clock, *, deadline=None, k: int = 10):
    spec = make_spec(k=k)
    return QuerySession(
        session_id, spec.build_operator(), k,
        quantum=8, deadline=deadline, clock=clock,
    )


class TestSessionDeadline:
    def test_no_deadline_never_expires(self):
        clock = ManualClock()
        session = make_session("a", clock)
        clock.now = 1e9
        assert not session.check_deadline()
        assert session.live

    def test_deadline_is_relative_to_submission(self):
        clock = ManualClock()
        clock.now = 100.0
        session = make_session("a", clock, deadline=2.0)
        clock.now = 101.9
        assert not session.check_deadline()
        clock.now = 102.0
        assert session.check_deadline()
        assert session.state is SessionState.DONE
        assert session.deadline_exceeded
        assert session.snapshot()["deadline_exceeded"]

    def test_expiry_keeps_the_partial_prefix(self):
        clock = ManualClock()
        session = make_session("a", clock, deadline=5.0)
        session.step()  # RUNNING with some prefix under way
        clock.now = 5.0
        assert session.check_deadline()
        assert session.state is SessionState.DONE
        # The expiry is graceful: whatever prefix exists stays available.
        assert session.answer() == session.results[: session.k]

    def test_terminal_sessions_ignore_deadlines(self):
        clock = ManualClock()
        session = make_session("a", clock, deadline=1.0)
        session.cancel()
        clock.now = 10.0
        assert not session.check_deadline()
        assert session.state is SessionState.CANCELLED
        assert not session.deadline_exceeded


class TestSchedulerSweep:
    def test_sweep_expires_live_sessions(self):
        clock = ManualClock()
        obs = Observability()
        service = QueryService(obs=obs)
        doomed = make_session("doomed", clock, deadline=1.0)
        steady = make_session("steady", clock)
        service.admit(doomed)
        service.admit(steady)
        clock.now = 2.0
        service.tick()
        assert doomed.state is SessionState.DONE
        assert doomed.deadline_exceeded
        assert doomed in service.finished_sessions
        assert steady in service.live_sessions
        assert obs.metrics.value("service_deadline_expirations_total") == 1

    def test_sweep_expires_queued_sessions_too(self):
        clock = ManualClock()
        service = QueryService(max_live=1)
        live = make_session("live", clock)
        queued = make_session("queued", clock, deadline=0.5)
        service.admit(live)
        service.admit(queued)
        assert service.queued_sessions == [queued]
        clock.now = 1.0
        service.tick()
        assert queued.state is SessionState.DONE
        assert queued.deadline_exceeded
        assert not service.queued_sessions
        # The expired queued session never consumed a pull.
        assert queued.pulls == 0

    def test_expired_sessions_free_admission_slots(self):
        clock = ManualClock()
        service = QueryService(max_live=1)
        doomed = make_session("doomed", clock, deadline=1.0)
        waiting = make_session("waiting", clock)
        service.admit(doomed)
        service.admit(waiting)
        clock.now = 2.0
        service.tick()
        assert waiting in service.live_sessions

    def test_run_until_complete_with_mixed_deadlines(self):
        clock = ManualClock()
        service = QueryService()
        expired = make_session("expired", clock, deadline=0.0)
        normal = make_session("normal", clock, k=5)
        clock.now = 0.5
        service.admit(expired)
        service.admit(normal)
        finished = service.run_until_complete()
        assert set(finished) == {expired, normal}
        assert expired.deadline_exceeded
        assert not normal.deadline_exceeded
        assert len(normal.answer()) == 5
