"""ResultCache under faults: only DONE sessions may write entries."""

from __future__ import annotations

from repro.errors import ReproError
from repro.service import QueryService
from repro.service.session import QuerySession, SessionState
from tests.service.conftest import make_spec


class DyingOperator:
    """Emits a few real results, then dies with a library error.

    Models an operator that fails mid-query: the prefix it produced is
    genuine, but the query did not complete — caching that prefix as if
    it were the longest-known answer would poison later lookups.
    """

    def __init__(self, inner, die_after: int) -> None:
        self._inner = inner
        self._die_after = die_after
        self._emitted = 0

    @property
    def pulls(self) -> int:
        return self._inner.pulls

    def try_next(self, max_pulls=None):
        if self._emitted >= self._die_after:
            raise ReproError("operator died mid-query")
        outcome = self._inner.try_next(max_pulls=max_pulls)
        if outcome is not None and outcome.__class__.__name__ == "JoinResult":
            self._emitted += 1
        return outcome

    def depths(self):
        return self._inner.depths()


def test_failed_session_writes_nothing_to_the_cache():
    spec = make_spec()
    service = QueryService(cache_capacity=8, quantum=16)
    key = spec.fingerprint()

    dying = DyingOperator(spec.build_operator(), die_after=3)
    session = QuerySession("f1", dying, spec.k, quantum=16, cache_key=key)
    service.admit(session)
    while session.live:
        service.tick()

    assert session.state is SessionState.FAILED
    assert session.results, "the dying operator emitted a real prefix"
    assert len(service.cache) == 0, "a FAILED session must not write the cache"
    assert service.cache.lookup(key, 1) is None


def test_retried_query_caches_only_the_clean_run():
    """Fail once, retry clean: the cache holds exactly the DONE answer."""
    spec = make_spec()
    service = QueryService(cache_capacity=8, quantum=16)
    key = spec.fingerprint()

    dying = DyingOperator(spec.build_operator(), die_after=2)
    failed = QuerySession("f2", dying, spec.k, quantum=16, cache_key=key)
    service.admit(failed)
    while failed.live:
        service.tick()
    assert failed.state is SessionState.FAILED
    assert len(service.cache) == 0

    # The retry goes through the normal submission path: a cache miss, a
    # fresh operator, a clean run to DONE — and only then a cache write.
    retry_id = service.submit(spec)
    retried = service.drain(retry_id)
    assert retried.state is SessionState.DONE
    assert not retried.from_cache
    assert len(service.cache) == 1
    cached = service.cache.lookup(key, spec.k)
    assert cached is not None
    assert [r.score for r in cached] == [r.score for r in retried.results[: spec.k]]

    # And the poisoning really would have been visible: the FAILED prefix
    # was shorter than the full answer.
    assert len(failed.results) < len(cached)

    # Third submission: a pure cache hit, zero pulls.
    hit_id = service.submit(spec)
    hit = service.session(hit_id)
    assert hit.from_cache and hit.state is SessionState.DONE
    assert hit.pulls == 0
    assert [r.score for r in hit.answer()] == [r.score for r in cached]


def test_budget_exhausted_done_prefix_still_caches():
    """Graceful DONE-with-partial (budget) is cacheable — FAILED is not.

    The distinction the fault tests enforce is *clean* vs *dirty* ends,
    not complete vs partial: a budget-exhausted session ended cleanly and
    its prefix is the true longest-known prefix.
    """
    spec = make_spec()
    service = QueryService(cache_capacity=8, quantum=16)
    sid = service.submit(spec, max_pulls=24)
    session = service.drain(sid)
    assert session.state is SessionState.DONE
    assert session.budget_exhausted
    assert len(service.cache) == 1
