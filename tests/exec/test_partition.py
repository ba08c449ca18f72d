"""Partitioner tests: determinism, order preservation, exact cover."""

import subprocess
import sys

import pytest

from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.exec import (
    HashPartitionPlan,
    partition_instance,
    partition_relation,
    stable_key_hash,
)
from repro.core.tuples import RankTuple
from repro.relation.relation import Relation


def make_relation(name, rows):
    return Relation(
        name,
        [RankTuple(key=key, scores=tuple(scores), payload=None)
         for key, scores in rows],
    )


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_key_hash(42) == stable_key_hash(42)
        assert stable_key_hash("abc") == stable_key_hash("abc")

    def test_deterministic_across_processes(self):
        # Python's builtin hash() is salted per process for strings; the
        # partitioner hash must not be.
        code = "from repro.exec import stable_key_hash; print(stable_key_hash('abc'))"
        runs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(seed)},
            ).stdout.strip()
            for seed in (1, 2)
        }
        assert len(runs) == 1
        assert runs == {str(stable_key_hash("abc"))}

    def test_spreads_over_shards(self):
        plan = HashPartitionPlan(8)
        used = {plan.shard_of(key) for key in range(1000)}
        assert used == set(range(8))


class TestHashPartition:
    def test_one_shard_is_identity(self):
        rel = make_relation("r", [(1, (0.9, 0.1)), (2, (0.5, 0.5))])
        [shard] = partition_relation(rel, HashPartitionPlan(1))
        assert [t.key for t in shard.tuples] == [1, 2]

    def test_preserves_input_order_per_shard(self):
        rel = make_relation("r", [(k, (1.0 - k / 100, 0.0)) for k in range(50)])
        shards = partition_relation(rel, HashPartitionPlan(4))
        for shard in shards:
            positions = [rel.tuples.index(t) for t in shard.tuples]
            assert positions == sorted(positions)

    def test_partition_is_exact_cover(self):
        rel = make_relation("r", [(k % 7, (k / 100, 0.5)) for k in range(60)])
        shards = partition_relation(rel, HashPartitionPlan(4))
        assert sum(len(s) for s in shards) == len(rel)
        # Same key never lands on two shards.
        for key in range(7):
            owners = [i for i, s in enumerate(shards)
                      if any(t.key == key for t in s.tuples)]
            assert len(owners) <= 1

    def test_empty_shards_keep_parent_dimension(self):
        rel = make_relation("r", [(1, (0.9, 0.1))])
        shards = partition_relation(rel, HashPartitionPlan(4))
        assert all(s.dimension == 2 for s in shards)

    def test_rejects_zero_shards(self):
        with pytest.raises(InstanceError):
            HashPartitionPlan(0)


class TestPartitionInstance:
    def test_shards_account_every_pair(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=2, e_right=2,
            num_keys=20, k=5, seed=7,
        )
        shards = partition_instance(instance, HashPartitionPlan(4))
        assert sum(s.join_size() for s in shards) == instance.join_size()
        assert sum(len(s.left) for s in shards) == len(instance.left)
        assert sum(len(s.right) for s in shards) == len(instance.right)

    def test_shards_inherit_scoring_and_k(self):
        instance = random_instance(
            n_left=50, n_right=50, e_left=2, e_right=2, num_keys=5, k=3, seed=7
        )
        shards = partition_instance(instance, HashPartitionPlan(2))
        assert all(s.scoring is instance.scoring for s in shards)
        assert all(s.k == instance.k for s in shards)

    def test_describe(self):
        assert HashPartitionPlan(4).describe() == "hash(4)"
