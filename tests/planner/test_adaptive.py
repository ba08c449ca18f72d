"""Tests for online re-sharding (AdaptiveShardedRankJoin)."""

import pytest

from repro.data.workload import lineitem_orders_instance, random_instance
from repro.data.workload import WorkloadParams
from repro.exec import ExecConfig, ShardedRankJoin
from repro.obs import Observability
from repro.planner import AdaptiveConfig, AdaptiveShardedRankJoin
from repro.resilience import emission_view


@pytest.fixture(scope="module")
def instance():
    return lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005,
                       join_skew=0.9, seed=1)
    )


FORCE_RESHARD = AdaptiveConfig(threshold=0.0, min_pulls=1, min_emitted=1)


class TestForcedReshard:
    def test_bit_identical_to_static_run(self, instance):
        config = ExecConfig(shards=4, backend="serial")
        with ShardedRankJoin(instance, "FRPA", config=config) as ref:
            reference = emission_view(ref.top_k(instance.k))
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=FORCE_RESHARD
        ) as engine:
            adaptive = emission_view(engine.top_k(instance.k))
            assert engine.reshards == 1
            assert engine.config.partitioner == "skew"
        assert adaptive == reference

    def test_pulls_monotonic_across_migration(self, instance):
        config = ExecConfig(shards=4, backend="serial")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=FORCE_RESHARD
        ) as engine:
            seen = []
            for _ in range(instance.k):
                if engine.get_next() is None:
                    break
                seen.append(engine.pulls)
        assert seen == sorted(seen)
        assert seen[-1] > 0

    def test_reshard_counter_increments(self, instance):
        obs = Observability()
        config = ExecConfig(shards=2, backend="serial")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=FORCE_RESHARD, obs=obs
        ) as engine:
            engine.top_k(instance.k)
            assert engine.reshards == 1
        assert obs.metrics.value(
            "planner_reshards_total", op="FRPA", partitioner="skew"
        ) == 1

    def test_max_reshards_respected(self, instance):
        # threshold 0 keeps asking; max_reshards must still cap at 1 and
        # the wrapper must not migrate to an identical config.
        config = ExecConfig(shards=4, backend="serial")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=FORCE_RESHARD
        ) as engine:
            engine.top_k(instance.k)
            assert engine.reshards == 1

    def test_shard_count_change(self, instance):
        adaptive = AdaptiveConfig(
            threshold=0.0, min_pulls=1, min_emitted=1, shards=8
        )
        config = ExecConfig(shards=2, backend="serial")
        with ShardedRankJoin(instance, "FRPA",
                             config=ExecConfig(shards=2, backend="serial")) as ref:
            reference = emission_view(ref.top_k(instance.k))
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=adaptive
        ) as engine:
            results = emission_view(engine.top_k(instance.k))
            assert engine.config.shards == 8
        assert results == reference


class TestNoReshard:
    def test_high_threshold_never_migrates(self, instance):
        adaptive = AdaptiveConfig(threshold=1e9, min_pulls=1)
        config = ExecConfig(shards=4, backend="serial")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=adaptive
        ) as engine:
            engine.top_k(instance.k)
            assert engine.reshards == 0

    def test_min_pulls_gate(self, instance):
        adaptive = AdaptiveConfig(threshold=0.0, min_pulls=10**9)
        config = ExecConfig(shards=4, backend="serial")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=adaptive
        ) as engine:
            engine.top_k(instance.k)
            assert engine.reshards == 0

    def test_single_shard_disables_monitor(self):
        inst = random_instance(
            n_left=120, n_right=120, e_left=2, e_right=2,
            num_keys=12, k=5, seed=0,
        )
        config = ExecConfig(shards=1, backend="serial")
        with AdaptiveShardedRankJoin(
            inst, "FRPA", config=config, adaptive=FORCE_RESHARD
        ) as engine:
            results = engine.top_k(5)
            assert len(results) == 5
            assert engine.reshards == 0

    def test_already_skew_partitioned_disables(self, instance):
        config = ExecConfig(shards=4, backend="serial", partitioner="skew")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=FORCE_RESHARD
        ) as engine:
            engine.top_k(instance.k)
            assert engine.reshards == 0


class TestReporting:
    def test_surface(self, instance):
        config = ExecConfig(shards=2, backend="serial")
        with AdaptiveShardedRankJoin(
            instance, "FRPA", config=config, adaptive=FORCE_RESHARD
        ) as engine:
            engine.top_k(instance.k)
            assert engine.name.startswith("adaptive[")
            assert engine.observed_imbalance() >= 1.0
            snap = engine.snapshot()
            assert snap["reshards"] == engine.reshards
            assert "observed_imbalance" in snap
            depths = engine.depths()
            assert depths.left > 0
            assert len(engine.shard_depths()) == 2
