"""The query service's schedule: round-robin, admission control, fairness and determinism.

The load-bearing property (ISSUE acceptance): interleaving N sessions
under the service never changes any query's top-K answer or its
sumDepths relative to running the same queries serially.
"""

import json
from dataclasses import replace

from repro.core.stepping import PENDING
from repro.obs import Observability
from repro.service import QueryService, QuerySession, SessionState

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
    def test_interleaved_equals_serial(self):
        specs = [make_spec(**w) for w in WORKLOAD]
        service = QueryService(max_live=3, quantum=8, cache_capacity=0)
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
            service = QueryService(max_live=4, quantum=8, cache_capacity=0)
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
        service = QueryService(max_live=3)
        sessions = [
            QuerySession(f"s{i}", spec.build_operator(), spec.k, quantum=4)
            for i, spec in enumerate(specs)
        ]
        for session in sessions:
            service.admit(session)
        # After 3 ticks every session has been stepped exactly once.
        for _ in range(3):
            service.tick()
        stepped = [s.steps for s in sessions]
        assert stepped == [1, 1, 1]

    def test_round_robin_keeps_its_place_when_a_session_finishes(self):
        # Four sessions; C is exhausted on its second step.  The rotation
        # goes on with D, then A: no session is skipped and none steps
        # twice before every other live one has stepped.
        order = []

        class Stub:
            pulls = 0

            def __init__(self, name, ends_at=None):
                self.name, self.ends_at, self.calls = name, ends_at, 0

            def try_next(self, max_pulls=None):
                order.append(self.name)
                self.calls += 1
                return None if self.calls == self.ends_at else PENDING

            def depths(self):
                return [0, 0]

        service = QueryService(max_live=4)
        for name in "ABCD":
            operator = Stub(name, ends_at=2 if name == "C" else None)
            service.admit(QuerySession(name, operator, 1, quantum=1))
        for _ in range(12):
            service.tick()
        assert "".join(order) == "ABCDABCDABDA"

    def test_a_step_is_bounded_by_one_quantum(self):
        # Live sessions counted in pulls: any-k in its DP (which releases
        # nothing for many steps), FRPA, HRJN* and an FRPA with a deadline.
        # A step releases at most one result, and between two steps of one
        # session every other live session spends at most one quantum
        # (any-k: plus one tie batch); a deadline still ends a session, at
        # the sweep before the next step.
        quantum = 8
        service = QueryService(max_live=4, quantum=quantum, cache_capacity=0)
        specs = [
            replace(make_spec(seed=0, k=10, n=600), algorithm="anyk"),
            make_spec(seed=1, k=10, operator="FRPA"),
            make_spec(seed=2, k=10, operator="HRJN*"),
            make_spec(seed=3, k=10, operator="FRPA"),
        ]
        ids = [service.submit(spec) for spec in specs[:3]]
        ids.append(service.submit(specs[3], deadline=3600.0))
        sessions = [service.session(i) for i in ids]
        anyk, late = sessions[0].operator, sessions[3]

        def pops():
            return 0 if anyk._enum is None else anyk._enum.pops

        steps = []  # (session index, pulls spent, released, pops)

        def recording(index, session):
            step = session.step

            def recorded():
                pulls, released, popped = session.pulls, len(session.results), pops()
                step()
                steps.append((index, session.pulls - pulls,
                              len(session.results) - released, pops() - popped))

            return recorded

        for index, session in enumerate(sessions):
            session.step = recording(index, session)
        for _ in range(12):
            service.tick()
        # The deadline passes between two ticks: the next sweep ends it.
        late._clock = lambda: late.submitted_at + 7200.0
        service.tick()
        assert late.state is SessionState.DONE and late.deadline_exceeded
        assert steps[-1][0] != 3  # expired without another step
        service.run_until_complete()
        assert all(s.state is SessionState.DONE for s in sessions)

        for index, spent, released, popped in steps:
            assert released <= 1
            assert spent <= quantum + popped
            assert popped == 0 or index == 0
        for i, (index, *_rest) in enumerate(steps):
            following = [step[0] for step in steps[i + 1:]]
            if index not in following:
                continue
            between = steps[i + 1:i + 1 + following.index(index)]
            for other in {step[0] for step in between}:
                spent = sum(step[1] for step in between if step[0] == other)
                popped = sum(step[3] for step in between if step[0] == other)
                assert spent <= quantum + popped
        # The bound was reached: any-k's DP ran whole quanta while FRPA and
        # HRJN* were live, and they released results in between.
        anyk_first = next(i for i, step in enumerate(steps) if step[0] == 0 and step[2])
        whole = [step for step in steps[:anyk_first] if step[0] == 0 and step[1] == quantum]
        assert len(whole) >= 2
        assert any(step[0] in (1, 2) and step[2] for step in steps[:anyk_first])


class TestAdmissionControl:
    def test_excess_sessions_queue(self):
        specs = [make_spec(seed=s, k=3) for s in range(4)]
        service = QueryService(max_live=2, quantum=8, cache_capacity=0)
        for spec in specs:
            service.submit(spec)
        assert len(service.live_sessions) == 2
        assert len(service.queued_sessions) == 2

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
        assert service.session(second) in service.queued_sessions
        assert service.cancel(first)
        # The queued session was admitted by the cancellation.
        assert service.session(second) in service.live_sessions
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


class TestObservability:
    def test_an_idle_service_reports_zero_gauges(self):
        slo = QueryService().stats()["slo"]
        assert (slo["live_sessions"], slo["queue_depth"]) == (0, 0)

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
        assert obs.metrics.value("service_pulls_total") == sum(
            service.session(i).pulls for i in ids
        )
        latency = obs.metrics.histogram("service_session_seconds")
        assert latency.count == len(ids)
