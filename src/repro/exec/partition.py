"""Deterministic hash partitioning of rank join inputs by join key.

Join results only form between tuples that agree on the join key, so
splitting both inputs with one key → shard mapping decomposes a binary
rank join into ``S`` completely independent shard-local rank joins: every
join result lives in exactly one shard, and the global top-K is a merge of
shard-local output streams (:mod:`repro.exec.merge`).

The mapping is :class:`HashPartitionPlan` — a stable content hash of the
join key modulo the shard count.  Deterministic across processes and
platforms (it deliberately avoids Python's randomized ``hash``), so the
same relation always partitions the same way — a prerequisite for the
sharded-equals-serial correctness invariant.

Partitioning preserves score-bound order: tuples are assigned in input
order, so each shard-local relation is a subsequence of its parent and
re-sorting inside :class:`~repro.relation.relation.RankJoinInstance` is a
stable no-op for already-sorted inputs.
"""

from __future__ import annotations

import hashlib
from typing import Hashable

from repro.errors import InstanceError
from repro.relation.relation import RankJoinInstance, Relation


def stable_key_hash(key: Hashable) -> int:
    """A 64-bit content hash of a join key, stable across processes.

    Python's builtin ``hash`` is salted per process for strings, so it
    cannot be used to partition work that must agree across workers (or
    across the runs a determinism test compares).
    """
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashPartitionPlan:
    """Stable ``key → shard`` mapping via content hash modulo shards."""

    name = "hash"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise InstanceError("a partition plan needs at least one shard")
        self.shards = shards

    def shard_of(self, key: Hashable) -> int:
        if self.shards == 1:
            return 0
        return stable_key_hash(key) % self.shards

    def describe(self) -> str:
        return f"{self.name}({self.shards})"


def partition_relation(relation: Relation, plan: HashPartitionPlan) -> list[Relation]:
    """Split ``relation`` into ``plan.shards`` shard-local relations.

    Tuples are assigned in input order (score-bound order is preserved
    per shard).  Empty shards keep the parent's score dimension so the
    downstream operator plumbing sees consistent metadata.
    """
    buckets: list[list] = [[] for _ in range(plan.shards)]
    for tup in relation.tuples:
        buckets[plan.shard_of(tup.key)].append(tup)
    shards = []
    for index, bucket in enumerate(buckets):
        shard = Relation(f"{relation.name}[{index}/{plan.shards}]", bucket)
        if not bucket:
            shard.dimension = relation.dimension
        shards.append(shard)
    return shards


def partition_instance(
    instance: RankJoinInstance,
    plan: HashPartitionPlan,
) -> list[RankJoinInstance]:
    """Split a problem instance into one shard-local instance per shard.

    Each shard instance shares the parent's scoring function, ``k`` and
    cost model; shard inputs are subsequences of the parent inputs, so
    every shard sees the access model of Definition 2.1 unchanged.
    """
    return [
        RankJoinInstance(
            left, right, instance.scoring, instance.k,
            cost_model=instance.cost_model,
        )
        for left, right in zip(partition_relation(instance.left, plan),
                               partition_relation(instance.right, plan))
    ]
