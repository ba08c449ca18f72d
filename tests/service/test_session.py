"""QuerySession: pull-quantum stepping, states, budgets, cancellation."""

import pytest

from repro.core.stepping import PENDING
from repro.errors import BudgetExhausted
from repro.service import QueryService, QuerySession, SessionState

from tests.service.conftest import make_spec, serial_answer


def make_session(spec, **kwargs):
    kwargs.setdefault("quantum", 16)
    return QuerySession("s1", spec.build_operator(), spec.k, **kwargs)


class TestStepping:
    def test_initial_state_is_pending(self):
        session = make_session(make_spec())
        assert session.state is SessionState.PENDING
        assert session.live and not session.done

    def test_first_step_transitions_to_running(self):
        session = make_session(make_spec())
        session.step()
        assert session.state in (SessionState.RUNNING, SessionState.DONE)
        assert session.started_at is not None

    def test_each_step_spends_at_most_one_quantum(self):
        # A step spends at most one quantum and releases at most one
        # result; one that releases nothing and neither exhausts nor ends
        # the budget spends exactly one quantum.
        session = make_session(make_spec(), quantum=7)
        spends = []
        while session.live:
            before, released = session.pulls, len(session.results)
            session.step()
            spent, new = session.pulls - before, len(session.results) - released
            assert spent <= 7 and new <= 1
            assert new or spent == 7 or session.exhausted
            spends.append((spent, new))
        # Some step ended at its release before the quantum was spent.
        assert any(new and spent < 7 for spent, new in spends)
        assert len(session.results) == session.k
        assert session.steps == len(spends)

    def test_runs_to_completion_with_serial_answer(self):
        spec = make_spec()
        expected, reference = serial_answer(spec)
        session = make_session(spec).run_to_completion()
        assert session.state is SessionState.DONE
        assert [r.score for r in session.answer()] == [r.score for r in expected]
        assert session.pulls == reference.pulls

    def test_step_on_terminal_session_is_noop(self):
        session = make_session(make_spec()).run_to_completion()
        pulls = session.pulls
        assert session.step() is False
        assert session.pulls == pulls

    def test_latency_recorded_on_finish(self):
        session = make_session(make_spec()).run_to_completion()
        assert session.latency is not None and session.latency >= 0.0

    def test_small_join_exhausts_before_k(self):
        spec = make_spec(k=10, n=20)
        session = make_session(spec, quantum=8).run_to_completion()
        _, reference = serial_answer(spec)
        assert session.state is SessionState.DONE
        assert len(session.results) == len(reference.emitted_results)


class TestBudget:
    def test_budget_exhaustion_is_graceful_partial_answer(self):
        spec = make_spec()
        session = make_session(spec, max_pulls=10).run_to_completion()
        assert session.state is SessionState.DONE
        assert session.budget_exhausted
        assert session.pulls <= 10
        assert len(session.answer()) < spec.k  # partial, not an exception

    def test_strict_answer_raises_budget_exhausted(self):
        session = make_session(make_spec(), max_pulls=5).run_to_completion()
        with pytest.raises(BudgetExhausted):
            session.answer(strict=True)

    def test_partial_results_drained_without_budget(self):
        # Whatever became provable within the budget is still delivered.
        spec = make_spec()
        _, reference = serial_answer(spec)
        generous = reference.pulls - 1
        session = make_session(spec, max_pulls=generous).run_to_completion()
        assert session.budget_exhausted
        assert session.pulls <= generous

    def test_sufficient_budget_completes_normally(self):
        spec = make_spec()
        _, reference = serial_answer(spec)
        session = make_session(spec, max_pulls=reference.pulls)
        session.run_to_completion()
        assert not session.budget_exhausted
        assert len(session.answer()) == spec.k

    @pytest.mark.parametrize("build, field", [
        (lambda: make_session(make_spec(), quantum=0), "quantum"),
        (lambda: make_session(make_spec(), max_pulls=-1), "max_pulls"),
        (lambda: QueryService(quantum=0), "quantum"),
        (lambda: QueryService(quantum=2.5), "quantum"),
        (lambda: QueryService(default_max_pulls=-3), "max_pulls"),
        (lambda: QueryService(default_max_pulls=1.5), "max_pulls"),
    ], ids=["session-quantum-0", "session-budget-negative", "service-quantum-0",
            "service-quantum-float", "service-budget-negative", "service-budget-float"])
    def test_unservable_setting_is_refused_at_construction(self, build, field):
        # Refused here, or a zero quantum fails every later submit as the
        # client's fault and a negative budget answers every query empty.
        with pytest.raises(ValueError, match=f"^{field} must be "):
            build()


class TestCancellation:
    def test_cancel_mid_query(self):
        session = make_session(make_spec(), quantum=4)
        session.step()
        assert session.cancel()
        assert session.state is SessionState.CANCELLED
        assert session.done

    def test_cancel_terminal_session_returns_false(self):
        session = make_session(make_spec()).run_to_completion()
        assert session.cancel() is False
        assert session.state is SessionState.DONE


class TestFailure:
    def test_operator_exception_fails_session(self):
        class Exploding:
            pulls = 0

            def try_next(self, max_pulls=None):
                raise RuntimeError("boom")

        session = QuerySession("s1", Exploding(), 5, quantum=4)
        session.step()
        assert session.state is SessionState.FAILED
        assert "boom" in session.error


class TestSnapshot:
    def test_snapshot_is_json_friendly(self):
        import json

        session = make_session(make_spec()).run_to_completion()
        payload = session.snapshot()
        json.dumps(payload)  # must not raise
        assert payload["state"] == "DONE"
        assert payload["complete"] is True
        assert len(payload["scores"]) == session.k
        assert payload["pulls"] == session.pulls

    def test_pending_sentinel_identity(self):
        # The module-level sentinel is falsy but distinct from None.
        assert not PENDING
        assert PENDING is not None
