"""Scheduler: policies, admission control, fairness and determinism.

The load-bearing property (ISSUE acceptance): interleaving N sessions
under the scheduler never changes any query's top-K answer or its
sumDepths relative to running the same queries serially.
"""

import json

import pytest

from repro.core.operators import make_operator
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.obs import Observability
from repro.relation.relation import RankJoinInstance, Relation
from repro.service import (
    BoundGapPolicy,
    DeadlinePolicy,
    QueryService,
    QuerySession,
    RoundRobinPolicy,
    Scheduler,
    SessionState,
    make_policy,
)

from tests.service.conftest import make_spec, serial_answer

#: A mixed workload: different seeds, k's, and operators.
WORKLOAD = [
    dict(seed=0, k=5, operator="FRPA"),
    dict(seed=1, k=8, operator="HRJN*"),
    dict(seed=2, k=3, operator="HRJN"),
    dict(seed=3, k=10, operator="FRPA_RR"),
    dict(seed=4, k=6, operator="FRPA"),
    dict(seed=5, k=4, operator="HRJN*"),
]


def serialize(results):
    """Byte-exact form of an answer (scores at full float precision)."""
    return json.dumps(
        [[r.score, repr(r.left.key), repr(r.right.key)] for r in results]
    ).encode()


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["round-robin", "deadline", "bound-gap"])
    def test_interleaved_equals_serial(self, policy):
        specs = [make_spec(**w) for w in WORKLOAD]
        service = QueryService(
            policy=policy, max_live=3, quantum=8, cache_capacity=0
        )
        session_ids = [service.submit(spec) for spec in specs]
        service.run_until_complete()
        for spec, session_id in zip(specs, session_ids):
            session = service.session(session_id)
            expected_results, reference = serial_answer(spec)
            assert session.state is SessionState.DONE
            # Byte-identical results…
            assert serialize(session.answer()) == serialize(expected_results)
            # …and identical work: the serial run's depths, per input.
            assert session.depths() == reference.depths()
            assert session.pulls == reference.pulls

    def test_round_robin_twice_is_identical(self):
        def run_once():
            specs = [make_spec(**w) for w in WORKLOAD[:4]]
            service = QueryService(policy="round-robin", max_live=4,
                                   quantum=8, cache_capacity=0)
            ids = [service.submit(s) for s in specs]
            service.run_until_complete()
            return b"".join(
                serialize(service.session(i).answer()) for i in ids
            )

        assert run_once() == run_once()


class TestFairness:
    def test_round_robin_interleaves_sessions(self):
        # With equal quanta, no session should finish only after every
        # other session has fully finished pulling — progress alternates.
        specs = [make_spec(seed=s, k=10) for s in range(3)]
        scheduler = Scheduler(policy="round-robin", max_live=3)
        sessions = [
            QuerySession(f"s{i}", spec.build_operator(), spec.k, quantum=4)
            for i, spec in enumerate(specs)
        ]
        for session in sessions:
            scheduler.submit(session)
        # After 3 ticks every session has been stepped exactly once.
        for _ in range(3):
            scheduler.tick()
        stepped = [s.steps for s in sessions]
        assert stepped == [1, 1, 1]


class TestAdmissionControl:
    def test_excess_sessions_queue(self):
        specs = [make_spec(seed=s, k=3) for s in range(4)]
        service = QueryService(max_live=2, quantum=8, cache_capacity=0)
        for spec in specs:
            service.submit(spec)
        assert len(service.scheduler.live_sessions) == 2
        assert len(service.scheduler.queued_sessions) == 2

    def test_queue_drains_as_sessions_finish(self):
        specs = [make_spec(seed=s, k=3) for s in range(4)]
        service = QueryService(max_live=1, quantum=32, cache_capacity=0)
        ids = [service.submit(spec) for spec in specs]
        service.run_until_complete()
        assert all(
            service.session(i).state is SessionState.DONE for i in ids
        )

    def test_cancel_live_session_frees_admission_slot(self):
        specs = [make_spec(seed=s, k=10) for s in range(2)]
        service = QueryService(max_live=1, quantum=4, cache_capacity=0)
        first, second = (service.submit(spec) for spec in specs)
        service.tick()  # first session starts running
        assert service.session(second) in service.scheduler.queued_sessions
        assert service.cancel(first)
        # The queued session was admitted by the cancellation.
        assert service.session(second) in service.scheduler.live_sessions
        service.run_until_complete()
        assert service.session(first).state is SessionState.CANCELLED
        assert service.session(second).state is SessionState.DONE

    def test_cancel_queued_session(self):
        service = QueryService(max_live=1, quantum=4, cache_capacity=0)
        first = service.submit(make_spec(seed=0, k=5))
        second = service.submit(make_spec(seed=1, k=5))
        assert service.cancel(second)
        assert service.session(second).state is SessionState.CANCELLED
        service.run_until_complete()
        assert service.session(first).state is SessionState.DONE

    def test_cancel_unknown_session(self):
        service = QueryService(cache_capacity=0)
        assert service.cancel("s999") is False


class TestPolicies:
    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("fifo")

    def test_make_policy_passes_instances_through(self):
        policy = RoundRobinPolicy()
        assert make_policy(policy) is policy

    def test_deadline_policy_prefers_earliest_deadline(self):
        spec = make_spec()
        urgent = QuerySession("a", spec.build_operator(), 3, deadline=1.0)
        lax = QuerySession("b", spec.build_operator(), 3, deadline=9.0)
        none = QuerySession("c", spec.build_operator(), 3)
        assert DeadlinePolicy().choose([lax, none, urgent]) is urgent

    def test_deadline_policy_breaks_ties_by_priority(self):
        spec = make_spec()
        high = QuerySession("a", spec.build_operator(), 3, priority=0)
        low = QuerySession("b", spec.build_operator(), 3, priority=5)
        assert DeadlinePolicy().choose([low, high]) is high

    def test_bound_gap_policy_prefers_near_finished(self):
        spec = make_spec(k=5)
        fresh = QuerySession("a", spec.build_operator(), 5, quantum=4)
        advanced = QuerySession("b", spec.build_operator(), 5, quantum=4)
        while not advanced.results:
            advanced.step()  # has buffered/emitted progress → smaller gap
        chosen = BoundGapPolicy().choose([fresh, advanced])
        assert chosen is advanced

    def test_bound_gap_reads_every_operator_buffer(self):
        # Every join result ties, so any-k buffers them as one batch: after
        # the first is out, the next is already proven — a gap of 0.
        rows = [RankTuple(i % 2, (0.5, 0.5)) for i in range(4)]
        ties = RankJoinInstance(Relation("L", rows), Relation("R", rows), SumScore(), 8)
        anyk = QuerySession("a", make_operator("AnyK", ties), 8)
        anyk.operator.get_next()
        spec = make_spec(k=10, operator="HRJN*")
        corner = QuerySession("b", spec.build_operator(), 10, quantum=4)
        while corner.live and not 0.0 < corner.bound_gap() < float("inf"):
            corner.step()
        assert 0.0 < corner.bound_gap() < float("inf")
        assert BoundGapPolicy().choose([corner, anyk]) is anyk
        assert anyk.bound_gap() == 0.0
        assert anyk.operator.best_buffered() == 1.0 + 1.0


class TestObservability:
    def test_scheduler_metrics(self):
        obs = Observability()
        service = QueryService(max_live=2, quantum=8, cache_capacity=0, obs=obs)
        ids = [service.submit(make_spec(seed=s, k=3)) for s in range(3)]
        assert obs.metrics.value("service_queue_depth") == 1
        service.run_until_complete()
        assert obs.metrics.value("service_queue_depth") == 0
        assert obs.metrics.value(
            "service_sessions_total", state="DONE"
        ) == len(ids)
        assert obs.metrics.value(
            "service_pulls_total", policy="round-robin"
        ) == sum(service.session(i).pulls for i in ids)
        latency = obs.metrics.histogram(
            "service_session_seconds", policy="round-robin"
        )
        assert latency.count == len(ids)
