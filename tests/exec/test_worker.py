"""Worker and backend tests: quantum accounting, backend equivalence."""

import pytest

from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.exec import (
    BACKENDS,
    ExecConfig,
    HashPartitionPlan,
    ShardWorker,
    make_backend,
    partition_instance,
)


@pytest.fixture(scope="module")
def shard_instances():
    instance = random_instance(
        n_left=300, n_right=300, e_left=2, e_right=2, num_keys=30, k=10, seed=2
    )
    shards, _ = partition_instance(instance, HashPartitionPlan(3))
    return [s for s in shards if len(s.left) and len(s.right)]


def make_workers(shard_instances):
    return [ShardWorker(i, inst, "FRPA") for i, inst in enumerate(shard_instances)]


class TestExecConfig:
    def test_defaults(self):
        config = ExecConfig()
        assert config.shards == 1 and config.backend == "serial"

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"quantum": 0},
        {"backend": "gpu"},
        {"partitioner": "range"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InstanceError):
            ExecConfig(**kwargs)


class TestShardWorker:
    def test_advance_respects_quantum(self, shard_instances):
        worker = ShardWorker(0, shard_instances[0], "FRPA")
        outcome = worker.advance(10)
        assert outcome.pulls <= 10
        assert outcome.depth_left + outcome.depth_right == outcome.pulls

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


class TestBackends:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_backends_agree(self, shard_instances, name):
        backend = make_backend(name)
        backend.start(make_workers(shard_instances))
        reference = make_backend("serial")
        reference.start(make_workers(shard_instances))
        try:
            for _ in range(5):
                requests = [(i, 20) for i in range(len(shard_instances))]
                got = backend.advance(requests)
                want = reference.advance(requests)
                assert [o.pulls for o in got] == [o.pulls for o in want]
                assert [
                    [r.score for r in o.results] for o in got
                ] == [[r.score for r in o.results] for o in want]
                assert [o.frontier for o in got] == [o.frontier for o in want]
        finally:
            backend.close()
            reference.close()

    def test_unknown_backend(self):
        with pytest.raises(InstanceError, match="unknown backend"):
            make_backend("gpu")

    @pytest.mark.parametrize("build", [
        make_backend, lambda name: ExecConfig(backend=name),
    ])
    def test_retired_thread_backend_is_a_one_line_error(self, build):
        assert BACKENDS == ("serial", "process")
        with pytest.raises(InstanceError) as err:
            build("thread")
        message = str(err.value)
        assert "'serial', 'process'" in message and "\n" not in message

    def test_close_is_idempotent(self, shard_instances):
        for name in BACKENDS:
            backend = make_backend(name)
            backend.start(make_workers(shard_instances))
            backend.advance([(0, 5)])
            backend.close()
            backend.close()
