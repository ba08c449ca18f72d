"""Worker tests: quantum accounting, config validation."""

import pytest

from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.exec import (
    BACKENDS,
    ExecConfig,
    HashPartitionPlan,
    ShardWorker,
    partition_instance,
)


@pytest.fixture(scope="module")
def shard_instances():
    instance = random_instance(
        n_left=300, n_right=300, e_left=2, e_right=2, num_keys=30, k=10, seed=2
    )
    shards = partition_instance(instance, HashPartitionPlan(3))
    return [s for s in shards if len(s.left) and len(s.right)]


class TestExecConfig:
    def test_defaults(self):
        config = ExecConfig()
        assert config.shards == 1 and config.backend == "serial"

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"quantum": 0},
        {"backend": "gpu"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InstanceError):
            ExecConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("shards", 2.0), ("shards", True), ("shards", "2"),
        ("quantum", True), ("quantum", 1.5),
    ])
    def test_bad_values_are_one_line_errors_naming_the_field(self, field, value):
        # At the parent all of these constructed; shards=2.0 then died with
        # a TypeError inside partitioning.
        with pytest.raises(InstanceError) as err:
            ExecConfig(**{field: value})
        message = str(err.value)
        assert f"ExecConfig.{field}" in message and "\n" not in message

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_retired_backends_are_a_one_line_error(self, backend):
        assert BACKENDS == ("serial",)
        with pytest.raises(InstanceError) as err:
            ExecConfig(backend=backend)
        message = str(err.value)
        assert "('serial',)" in message and "\n" not in message


class TestShardWorker:
    def test_advance_respects_quantum(self, shard_instances):
        worker = ShardWorker(0, shard_instances[0], "FRPA")
        outcome = worker.advance(10)
        assert outcome.pulls <= 10
        assert sum(outcome.depths) == outcome.pulls

    def test_results_in_decreasing_score_order(self, shard_instances):
        worker = ShardWorker(0, shard_instances[0], "FRPA")
        scores = []
        while not worker.exhausted:
            outcome = worker.advance(50)
            scores.extend(r.score for r in outcome.results)
        assert scores == sorted(scores, reverse=True)

    def test_frontier_is_non_increasing(self, shard_instances):
        worker = ShardWorker(0, shard_instances[0], "FRPA")
        previous = float("inf")
        while not worker.exhausted:
            outcome = worker.advance(25)
            assert outcome.frontier <= previous + 1e-9
            previous = outcome.frontier

    def test_frontier_bounds_future_results(self, shard_instances):
        worker = ShardWorker(0, shard_instances[0], "FRPA")
        outcome = worker.advance(40)
        frontier = outcome.frontier
        later = []
        while not worker.exhausted:
            later.extend(worker.advance(50).results)
        assert all(r.score <= frontier + 1e-9 for r in later)

    def test_exhausted_worker_advance_is_noop(self, shard_instances):
        worker = ShardWorker(0, shard_instances[0], "FRPA")
        while not worker.exhausted:
            worker.advance(100)
        outcome = worker.advance(100)
        assert outcome.exhausted and outcome.results == () and outcome.pulls == 0

    def test_total_results_match_shard_join_size(self, shard_instances):
        for index, shard in enumerate(shard_instances):
            worker = ShardWorker(index, shard, "FRPA")
            total = 0
            while not worker.exhausted:
                total += len(worker.advance(100).results)
            assert total == shard.join_size()
