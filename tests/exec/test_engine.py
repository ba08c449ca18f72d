"""`ShardedRankJoin` tests — headlined by the correctness invariant:

    sharded top-K == serial top-K (scores bit-for-bit, ties in canonical
    identity order) on every seed workload, for shards ∈ {1, 2, 4, 8}.
"""

import pytest

from repro.core.stepping import PENDING
from repro.exec import ExecConfig, ShardedRankJoin
from repro.service import QuerySession, QuerySpec, SessionState

from tests.exec.conftest import SEED_WORKLOADS, canonical_top_k, identity_view


class TestShardedEqualsSerial:
    """The test-enforced invariant from the merge design."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("workload", SEED_WORKLOADS)
    def test_invariant_on_seed_workloads(self, workloads, workload, shards):
        instance = workloads[workload]
        k = instance.k
        reference = canonical_top_k(instance, k)
        with ShardedRankJoin(
            instance, "FRPA", config=ExecConfig(shards=shards, backend="serial")
        ) as engine:
            sharded = engine.top_k(k)
        assert identity_view(sharded) == identity_view(reference)

    @pytest.mark.parametrize("backend", ["serial"])
    def test_backend_never_changes_the_answer(self, workloads, backend):
        instance = workloads["uniform"]
        reference = canonical_top_k(instance, instance.k)
        with ShardedRankJoin(
            instance, "FRPA", config=ExecConfig(shards=4, backend=backend)
        ) as engine:
            sharded = engine.top_k(instance.k)
        assert identity_view(sharded) == identity_view(reference)

    @pytest.mark.parametrize("operator", ["HRJN", "HRJN*", "a-FRPA"])
    def test_invariant_holds_for_other_operators(self, workloads, operator):
        instance = workloads["zipf"]
        reference = canonical_top_k(instance, instance.k, operator=operator)
        with ShardedRankJoin(
            instance, operator, config=ExecConfig(shards=4, backend="serial")
        ) as engine:
            sharded = engine.top_k(instance.k)
        assert identity_view(sharded) == identity_view(reference)

    def test_full_drain_matches_serial(self, workloads):
        instance = workloads["uniform"]
        join_size = instance.join_size()
        reference = canonical_top_k(instance, join_size)
        with ShardedRankJoin(
            instance, "FRPA", config=ExecConfig(shards=4, backend="serial")
        ) as engine:
            sharded = list(engine)
        assert len(sharded) == join_size
        assert identity_view(sharded) == identity_view(reference)


class TestResumableContract:
    """Sharding-specific stepping; the contract every operator shares
    (zero quantum, resumable ``top_k``, terminal exhaustion, protocol) is
    the matrix in ``tests/core/test_resumable.py`` (row ``sharded``)."""

    def test_try_next_budget_is_respected(self, workloads):
        instance = workloads["uniform"]
        engine = ShardedRankJoin(
            instance, "FRPA", config=ExecConfig(shards=4, backend="serial")
        )
        results = []
        with engine:
            while True:
                before = engine.pulls
                step = engine.try_next(max_pulls=7)
                assert engine.pulls - before <= 7
                if step is None:
                    break
                if step is not PENDING:
                    results.append(step)
        reference = canonical_top_k(instance, instance.join_size())
        assert identity_view(results) == identity_view(reference)


class TestInstrumentation:
    def test_per_shard_pull_counters_sum_to_total(self, workloads):
        config = ExecConfig(shards=4, backend="serial")
        with ShardedRankJoin(workloads["uniform"], "FRPA", config=config) as engine:
            engine.top_k(10)
            per_shard = [worker.pulls for worker in engine._workers.values()]
            assert sum(per_shard) == engine.pulls > 0

    def test_depth_reporting(self, workloads):
        with ShardedRankJoin(
            workloads["uniform"], "FRPA",
            config=ExecConfig(shards=4, backend="serial"),
        ) as engine:
            engine.top_k(10)
            assert sum(engine.depths()) == engine.sum_depths == engine.pulls


class TestServiceIntegration:
    def test_drop_in_query_session(self, workloads):
        instance = workloads["uniform"]
        k = instance.k
        engine = ShardedRankJoin(
            instance, "FRPA", config=ExecConfig(shards=4, backend="serial")
        )
        with engine:
            session = QuerySession("s1", engine, k, quantum=16)
            while session.state not in (
                SessionState.DONE, SessionState.FAILED, SessionState.CANCELLED
            ):
                session.step()
            assert session.state is SessionState.DONE
            assert identity_view(session.results) \
                == identity_view(canonical_top_k(instance, k))

    def test_multiway_rejects_shards(self, workloads):
        # No query can ask for sharding, multiway or binary.
        instance = workloads["uniform"]
        with pytest.raises(TypeError, match="shards"):
            QuerySpec(
                relations=(instance.left, instance.right, instance.left),
                k=5, join_attrs=("a", "b"), shards=2,
            )
