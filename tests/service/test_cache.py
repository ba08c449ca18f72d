"""ResultCache: LRU+TTL mechanics, prefix reuse, and prefix extension."""

import copyreg
import io
import pickle
import random

import pytest

from repro.core import tuples as tuples_module
from repro.core.tuples import JoinResult, RankTuple
from repro.obs import Observability
from repro.relation import Relation
from repro.service import (
    QueryService,
    QuerySpec,
    ResultCache,
    ServiceClient,
    SessionState,
)

from tests.conftest import kernel_table
from tests.service.conftest import make_instance, make_spec, serial_answer
from tests.service.test_server import INSTANCE, REFERENCE_SCORES, running_server


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCacheMechanics:
    def test_lookup_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup("q1", 3) is None
        cache.store("q1", ["a", "b", "c"])
        assert cache.lookup("q1", 3) == ["a", "b", "c"]

    def test_prefix_reuse_smaller_k(self):
        cache = ResultCache(capacity=4)
        cache.store("q1", ["a", "b", "c"])
        assert cache.lookup("q1", 2) == ["a", "b"]
        assert cache.lookup("q1", 4) is None  # prefix too short

    def test_exhausted_entry_covers_any_k(self):
        cache = ResultCache(capacity=4)
        cache.store("q1", ["a", "b"], exhausted=True)
        assert cache.lookup("q1", 100) == ["a", "b"]

    def test_shorter_prefix_never_overwrites_longer(self):
        cache = ResultCache(capacity=4)
        cache.store("q1", ["a", "b", "c"])
        cache.store("q1", ["a"])  # late k'=1 session must not shrink entry
        assert cache.lookup("q1", 3) == ["a", "b", "c"]

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.store("q1", ["a"])
        cache.store("q2", ["b"])
        cache.lookup("q1", 1)  # refresh q1 → q2 is now least recent
        cache.store("q3", ["c"])
        assert cache.lookup("q2", 1) is None
        assert cache.lookup("q1", 1) == ["a"]
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl=10.0, clock=clock)
        cache.store("q1", ["a"])
        clock.now = 5.0
        assert cache.lookup("q1", 1) == ["a"]
        clock.now = 11.0
        assert cache.lookup("q1", 1) is None
        assert cache.stats()["expirations"] == 1

    def test_continuation_exclusive_checkout(self):
        cache = ResultCache(capacity=4)
        operator = object()
        cache.store("q1", ["a", "b"], operator=operator)
        prefix, checked_out = cache.take_continuation("q1")
        assert prefix == ["a", "b"] and checked_out is operator
        # Second checkout fails — the operator is gone from the entry…
        assert cache.take_continuation("q1") is None
        # …but prefix hits still work.
        assert cache.lookup("q1", 2) == ["a", "b"]

    def test_no_continuation_when_exhausted(self):
        cache = ResultCache(capacity=4)
        cache.store("q1", ["a"], exhausted=True, operator=object())
        assert cache.take_continuation("q1") is None

    def test_stats_and_hit_rate(self):
        cache = ResultCache(capacity=4)
        cache.store("q1", ["a"])
        cache.lookup("q1", 1)
        cache.lookup("q2", 1)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_invalidate_and_clear(self):
        cache = ResultCache(capacity=4)
        cache.store("q1", ["a"])
        assert cache.invalidate("q1") is True
        assert cache.invalidate("q1") is False
        cache.store("q2", ["b"])
        cache.clear()
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    @pytest.mark.parametrize("ttl", [-1, 0, float("nan"), float("inf"), "60"])
    def test_unservable_ttl_is_refused(self, ttl):
        # A negative TTL would expire every entry as it is stored, NaN none.
        with pytest.raises(ValueError, match="^ttl must be "):
            ResultCache(ttl=ttl)
        with pytest.raises(ValueError, match="^ttl must be "):
            QueryService(cache_ttl=ttl)


class TestContinuationDisposal:
    """``QueryService.close()`` stays callable and empties the cache; no
    operator owns anything that would need closing first."""

    def test_service_close_disposes_cached_continuation(self):
        service = QueryService(quantum=64)
        spec = make_spec(k=4)
        service.run_query(spec)
        key = spec.fingerprint()
        peeked = service.cache.take_continuation(key)
        assert peeked is not None, "run left no continuation to protect"
        # Park it back, then close the service: the cache is emptied.
        service.cache.store(key, peeked[0], operator=peeked[1])
        service.close()
        assert len(service.cache) == 0


class TestServiceCaching:
    def test_repeat_query_served_with_zero_pulls(self):
        spec = make_spec()
        obs = Observability()
        service = QueryService(obs=obs)
        first = service.run_query(spec)
        pulls_after_first = service.scheduler.stats()["pulls"]
        second = service.run_query(spec)
        assert [r.score for r in second] == [r.score for r in first]
        # The repeat cost zero pulls and registered as a cache hit.
        assert service.scheduler.stats()["pulls"] == pulls_after_first
        assert obs.metrics.value("service_cache_hits_total") == 1
        session = service.scheduler.finished_sessions[-1]
        assert session.from_cache and session.pulls == 0

    def test_prefix_reuse_smaller_k_through_service(self):
        instance = make_instance()
        big = QuerySpec(relations=(instance.left, instance.right), k=10)
        small = QuerySpec(relations=(instance.left, instance.right), k=4)
        service = QueryService()
        full = service.run_query(big)
        pulls = service.scheduler.stats()["pulls"]
        head = service.run_query(small)
        assert [r.score for r in head] == [r.score for r in full[:4]]
        assert service.scheduler.stats()["pulls"] == pulls  # zero new pulls

    def test_prefix_extension_resumes_suspended_operator(self):
        instance = make_instance()
        base = QuerySpec(relations=(instance.left, instance.right), k=10)
        wider = QuerySpec(relations=(instance.left, instance.right), k=15)
        service = QueryService()
        service.run_query(base)
        pulls_for_base = service.scheduler.stats()["pulls"]
        extended = service.run_query(wider)
        marginal = service.scheduler.stats()["pulls"] - pulls_for_base
        # Correct answer…
        expected, reference = serial_answer(wider)
        assert [r.score for r in extended] == [r.score for r in expected]
        # …for strictly fewer pulls than computing k=15 from scratch.
        assert 0 < marginal < reference.pulls
        # The longer prefix is cached now: the k=15 repeat is free.
        before = service.scheduler.stats()["pulls"]
        service.run_query(wider)
        assert service.scheduler.stats()["pulls"] == before

    def test_permuted_relations_share_cache_entry(self):
        instance = make_instance()
        shuffled = Relation(
            "lineitem-permuted", list(reversed(instance.left.tuples))
        )
        spec_a = QuerySpec(relations=(instance.left, instance.right), k=5)
        spec_b = QuerySpec(relations=(shuffled, instance.right), k=5)
        assert spec_a.fingerprint() == spec_b.fingerprint()
        service = QueryService()
        first = service.run_query(spec_a)
        second = service.run_query(spec_b)
        assert [r.score for r in second] == [r.score for r in first]
        session = service.scheduler.finished_sessions[-1]
        assert session.from_cache

    def test_cache_disabled_recomputes(self):
        spec = make_spec()
        service = QueryService(cache_capacity=0)
        service.run_query(spec)
        pulls = service.scheduler.stats()["pulls"]
        service.run_query(spec)
        assert service.scheduler.stats()["pulls"] == 2 * pulls

    def test_failed_sessions_are_not_cached(self):
        spec = make_spec()
        service = QueryService()
        key = spec.fingerprint()

        session_id = service.submit(spec)
        session = service.session(session_id)

        class Exploding:
            pulls = 0

            def try_next(self, max_pulls=None):
                raise RuntimeError("boom")

        session.operator = Exploding()
        service.run_until_complete()
        assert session.state is SessionState.FAILED
        assert service.cache.lookup(key, 1) is None


class TestPlanAwareCacheKeys:
    """Auto specs key the cache by their *resolved* plan (PR 8 follow-up).

    A pinned :class:`QuerySpec` and an ``auto`` spec the planner resolves
    to the same plan must hit the same :class:`ResultCache` entry — in
    both directions.  Likewise the kernel routing table: both forms of a
    kernel op are bit-identical by contract, so the table must be
    invisible to the cache key.
    """

    @staticmethod
    def _auto_and_pinned():
        instance = make_instance()
        auto_spec = QuerySpec(
            relations=(instance.left, instance.right),
            k=10,
            algorithm="auto",
        )
        resolved = auto_spec.resolve()
        # An independent, fully static spec describing the same plan —
        # built from scratch, not by aliasing the resolved object.
        pinned = QuerySpec(
            relations=auto_spec.relations,
            k=auto_spec.k,
            algorithm=resolved.algorithm,
            operator=resolved.operator,
        )
        assert not pinned.is_auto
        return auto_spec, pinned

    def test_auto_resolves_to_pinned_fingerprint(self):
        auto_spec, pinned = self._auto_and_pinned()
        assert auto_spec.fingerprint() == pinned.fingerprint()

    def test_pinned_run_warms_cache_for_auto(self):
        auto_spec, pinned = self._auto_and_pinned()
        obs = Observability()
        service = QueryService(obs=obs)
        first = service.run_query(pinned)
        pulls = service.scheduler.stats()["pulls"]
        second = service.run_query(auto_spec)
        assert [r.score for r in second] == [r.score for r in first]
        assert service.scheduler.stats()["pulls"] == pulls  # zero new pulls
        assert obs.metrics.value("service_cache_hits_total") == 1
        assert service.scheduler.finished_sessions[-1].from_cache

    def test_auto_run_warms_cache_for_pinned(self):
        auto_spec, pinned = self._auto_and_pinned()
        service = QueryService()
        first = service.run_query(auto_spec)
        pulls = service.scheduler.stats()["pulls"]
        second = service.run_query(pinned)
        assert [r.score for r in second] == [r.score for r in first]
        assert service.scheduler.stats()["pulls"] == pulls
        assert service.scheduler.finished_sessions[-1].from_cache

    def test_kernel_table_is_cache_invisible(self):
        # The two forms of a kernel op are bit-identical, so a run of the
        # one operator that calls the bulk ops, all on the loop, must warm
        # the cache for the same query all on numpy.
        instance = make_instance()
        spec = QuerySpec(
            relations=(instance.left, instance.right), k=10,
            operator="PBRJ_FR^RR",
        )
        service = QueryService()
        with kernel_table("python"):
            fingerprint = spec.fingerprint()
            first = service.run_query(spec)
        pulls = service.scheduler.stats()["pulls"]
        with kernel_table("numpy"):
            assert spec.fingerprint() == fingerprint
            second = service.run_query(spec)
        assert [r.score for r in second] == [r.score for r in first]
        assert service.scheduler.stats()["pulls"] == pulls
        assert service.scheduler.finished_sessions[-1].from_cache


def answers(*scores):
    """Join results with these scores: what the shared tier holds."""
    return [JoinResult.combine((RankTuple(0, (s,)), RankTuple(0, (s,))), s)
            for s in scores]


A, B, C, D = answers(0.9, 0.8, 0.7, 0.6)


class OpensForWriting:
    """Pickles as a call to ``open(path, "w")``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (str(self.path), "w")


def hostile_files():
    """``(id, bytes)``: files a shared directory may hold that no worker
    wrote.  At the parent the first killed the connection that looked it
    up, the second was served as an answer, and ``MemoryError`` /
    ``OverflowError`` escaped for some of the random ones."""
    yield "foreign-module", b"cno_such_module\nThing\n)R."
    well_formed = {"results": [A], "exhausted": True, "created_at": 1.0}
    for name, payload in [
        ("results-of-ints", {"results": [1, 2, 3], "exhausted": True}),
        ("results-of-ints-dated", {**well_formed, "results": [1, 2, 3]}),
        ("results-a-tuple", {**well_formed, "results": (A,)}),
        ("score-nan", {**well_formed, "results": answers(float("nan"))}),
        ("score-a-string", {**well_formed, "results": answers("0.9")}),
        ("exhausted-an-int", {**well_formed, "exhausted": 1}),
        ("created-at-missing", {"results": [A], "exhausted": True}),
        ("created-at-inf", {**well_formed, "created_at": float("inf")}),
        ("created-at-a-string", {**well_formed, "created_at": "1.0"}),
        ("created-at-a-bool", {**well_formed, "created_at": True}),
        ("not-a-dict", [A]),
        ("none", None),
    ]:
        yield name, pickle.dumps(payload)
    rng = random.Random(0)
    for index in range(300):
        yield f"random-{index}", bytes(
            rng.randrange(256) for _ in range(rng.randrange(1, 40))
        )


class TestSharedTier:
    """The cross-process disk tier behind the serve fleet."""

    def test_write_through_and_cross_instance_hit(self, tmp_path):
        writer = ResultCache(capacity=4, shared_dir=tmp_path)
        writer.store("q1", [A, B, C])
        # A different cache instance (another worker, in the fleet) finds
        # the prefix on disk and promotes it into its own memory.
        reader = ResultCache(capacity=4, shared_dir=tmp_path)
        assert reader.lookup("q1", 3) == [A, B, C]
        assert reader.stats()["shared_hits"] == 1
        assert reader.stats()["hits"] == 1
        # Second lookup is a plain memory hit — the disk is not re-read.
        assert reader.lookup("q1", 2) == [A, B]
        assert reader.stats()["shared_hits"] == 1

    def test_shorter_prefix_never_overwrites_longer_on_disk(self, tmp_path):
        a = ResultCache(capacity=4, shared_dir=tmp_path)
        b = ResultCache(capacity=4, shared_dir=tmp_path)
        a.store("q1", [A, B, C])
        b.store("q1", [A])  # late short answer must not shrink the file
        fresh = ResultCache(capacity=4, shared_dir=tmp_path)
        assert fresh.lookup("q1", 3) == [A, B, C]

    def test_promotion_drops_stale_continuation(self, tmp_path):
        """Regression: adopting a longer shared prefix must invalidate a
        continuation suspended at the old shorter prefix, or a later
        extension re-emits results the operator already produced."""

        cache = ResultCache(capacity=4, shared_dir=tmp_path)
        cache.store("q1", [A, B], operator=object())
        # Another worker publishes a longer prefix for the same query.
        other = ResultCache(capacity=4, shared_dir=tmp_path)
        other.store("q1", [A, B, C, D])
        # This worker misses in memory for k=4, promotes the shared
        # prefix — and must NOT hand back the operator positioned at 2.
        assert cache.lookup("q1", 4) == [A, B, C, D]
        assert cache.take_continuation("q1") is None

    def test_exhausted_travels_through_the_shared_tier(self, tmp_path):
        a = ResultCache(capacity=4, shared_dir=tmp_path)
        a.store("q1", [A, B], exhausted=True)
        b = ResultCache(capacity=4, shared_dir=tmp_path)
        assert b.lookup("q1", 100) == [A, B]

    def test_shared_ttl_expires_on_wall_clock(self, tmp_path, monkeypatch):
        import repro.service.cache as cache_module

        now = [1000.0]
        monkeypatch.setattr(cache_module.time, "time", lambda: now[0])
        a = ResultCache(capacity=4, ttl=10.0, shared_dir=tmp_path)
        a.store("q1", [A])
        now[0] = 1020.0
        b = ResultCache(capacity=4, ttl=10.0, shared_dir=tmp_path)
        assert b.lookup("q1", 1) is None
        assert not list(tmp_path.glob("*.pkl")), "expired file not reaped"

    def test_corrupt_shared_file_is_a_clean_miss(self, tmp_path):
        (tmp_path / "q1.pkl").write_bytes(b"not a pickle")
        cache = ResultCache(capacity=4, shared_dir=tmp_path)
        assert cache.lookup("q1", 1) is None

    def test_a_shared_file_runs_no_code(self, tmp_path):
        """A file whose unpickling would open a path for writing opens
        nothing: only the result classes resolve, so it is a plain miss."""
        target = tmp_path / "written"
        (tmp_path / "q1.pkl").write_bytes(pickle.dumps(OpensForWriting(target)))
        cache = ResultCache(capacity=4, shared_dir=tmp_path)
        assert cache.lookup("q1", 1) is None
        assert not target.exists()

    def test_binary_and_nary_records_still_hit(self, tmp_path):
        left, right = RankTuple(key=1, scores=(0.5,)), RankTuple(key=1, scores=(0.25,))
        chain = [JoinResult.combine((left, right, left), 1.25)]
        writer = ResultCache(capacity=4, shared_dir=tmp_path)
        writer.store("binary", [A, B])
        writer.store("chain", chain)
        obs = Observability()
        reader = ResultCache(capacity=4, shared_dir=tmp_path, obs=obs)
        assert reader.lookup("binary", 2) == [A, B]
        found = reader.lookup("chain", 1)
        assert [(r.score, r.tuples) for r in found] == [(1.25, (left, right, left))]
        assert obs.metrics.value("service_cache_shared_hits_total") == 2

    @pytest.mark.parametrize("layout", ["two-constituent", "multiway"])
    def test_an_older_layout_record_is_a_clean_miss(self, tmp_path, monkeypatch, layout):
        """A record written before every result held one tuple per input
        misses: a ``JoinResult`` whose state is ``[left, right, score,
        scores]`` fills the wrong slots, and ``MultiwayResult`` no longer
        resolves."""
        left, right = RankTuple(key=1, scores=(0.5,)), RankTuple(key=1, scores=(0.25,))

        class Older(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is JoinResult:
                    state = [obj.left, obj.right, obj.score, obj.scores]
                    return copyreg.__newobj__, (JoinResult,), state
                return NotImplemented

        class MultiwayResult:
            __slots__ = ("tuples", "score", "scores")
            __module__, __qualname__ = "repro.core.tuples", "MultiwayResult"

        if layout == "multiway":
            result = MultiwayResult()
            result.tuples, result.score = (left, right, left), 1.25
            result.scores = (0.5, 0.25, 0.5)
            monkeypatch.setattr(tuples_module, "MultiwayResult", MultiwayResult,
                                raising=False)
        else:
            result = JoinResult.combine((left, right), 0.75)
        buffer = io.BytesIO()
        Older(buffer).dump({"results": [result], "exhausted": True, "created_at": 1.0})
        monkeypatch.delattr(tuples_module, "MultiwayResult", raising=False)
        (tmp_path / "q1.pkl").write_bytes(buffer.getvalue())
        assert ResultCache(capacity=4, shared_dir=tmp_path).lookup("q1", 1) is None

    def test_no_hostile_file_is_served_or_raises(self, tmp_path):
        """Every file of the corpus reads as a miss, and a real answer
        stored over it is then found."""
        escaped, served = [], []
        for name, data in hostile_files():
            (tmp_path / "q1.pkl").write_bytes(data)
            cache = ResultCache(capacity=4, shared_dir=tmp_path)
            try:
                if cache.lookup("q1", 1) is not None:
                    served.append(name)
            except Exception as exc:  # noqa: BLE001 - the finding
                escaped.append(f"{name}: {type(exc).__name__}")
        assert (escaped, served) == ([], [])
        ResultCache(capacity=4, shared_dir=tmp_path).store("q1", [A, B])
        assert ResultCache(capacity=4, shared_dir=tmp_path).lookup("q1", 2) \
            == [A, B]

    @pytest.mark.parametrize("name", ["foreign-module", "results-of-ints"])
    def test_a_server_computes_past_a_planted_file(self, tmp_path, name):
        """With a hostile file at the query's own key, the submit is
        answered, the answer is computed, and the connection serves on."""
        data = dict(hostile_files())[name]
        spec = QuerySpec(relations=(INSTANCE.left, INSTANCE.right), k=5)
        planted = tmp_path / f"{spec.fingerprint()}.pkl"
        planted.write_bytes(data)
        service = QueryService(
            quantum=16, cache=ResultCache(shared_dir=tmp_path)
        )
        with running_server(service) as server:
            with ServiceClient(server.host, server.port, timeout=20.0) as client:
                final = client.run(left="lineitem", right="orders", k=5)
                assert client.stats()["ok"] is True
        assert final["state"] == "DONE"
        assert final["from_cache"] is False and final["pulls"] > 0
        assert final["scores"] == [round(s, 6) for s in REFERENCE_SCORES[:5]]
        # The computed answer was written over the planted file.
        assert pickle.loads(planted.read_bytes())["results"][0].score \
            == REFERENCE_SCORES[0]
