"""Hypothesis properties of result release moments.

The streaming contract rests on ``QuerySession.released_at``: one stamp
per result, nondecreasing, bounded by the session's finish time, and the
emission (release) order equal to the serial oracle's top-k order — for
every operator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import QueryService, QuerySpec, SessionState

from tests.service.conftest import make_instance


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=20),
    k=st.integers(min_value=1, max_value=12),
    operator=st.sampled_from(["FRPA", "HRJN*", "a-FRPA"]),
)
def test_release_moments_align_with_the_oracle(seed, k, operator):
    instance = make_instance(seed=seed, n=120, num_keys=12, k=k)
    oracle = [
        round(r.score, 6)
        for r in QuerySpec(
            relations=(instance.left, instance.right), k=k
        ).build_operator().top_k(k)
    ]
    service = QueryService(quantum=8, cache_capacity=0)
    session_id = service.submit(QuerySpec(
        relations=(instance.left, instance.right), k=k, operator=operator,
    ))
    session = service.scheduler.drain(session_id)
    assert session.state is SessionState.DONE

    # Release order IS the oracle order: the streamed sequence equals
    # the final top-k, element for element.
    assert [round(r.score, 6) for r in session.results[:k]] == oracle

    # One release stamp per result, nondecreasing, and every stamp
    # falls inside the session's lifetime — no event can carry a
    # timestamp after the DONE moment.
    assert len(session.released_at) == len(session.results)
    assert session.released_at == sorted(session.released_at)
    assert all(ts >= session.submitted_at for ts in session.released_at)
    assert all(ts <= session.finished_at for ts in session.released_at)

    if session.results:
        assert session.time_to_first is not None
        assert 0.0 <= session.time_to_first <= session.latency
