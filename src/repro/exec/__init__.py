"""Sharded execution for rank joins.

Hash-partition both inputs by join key, run an independent PBRJ-family
operator per shard in bounded pull quanta, and merge shard outputs
through a gate that releases a result only once no live shard can beat
or tie it.  The public facade is :class:`ShardedRankJoin`, a drop-in
:class:`~repro.core.stepping.ResumableOperator`.

Correctness invariant (test-enforced): for any instance, operator and
shard count, the sharded top-K equals the serial top-K — same
scores bit-for-bit, ties broken by the canonical result identity of
:func:`repro.exec.merge.result_identity`.
"""

from repro.exec.engine import ShardedRankJoin
from repro.exec.merge import GlobalTopKMerger, result_identity
from repro.exec.partition import (
    HashPartitionPlan,
    PartitionStats,
    partition_instance,
    partition_relation,
    stable_key_hash,
)
from repro.exec.worker import (
    BACKENDS,
    DEFAULT_QUANTUM,
    AdvanceOutcome,
    ExecConfig,
    ShardWorker,
)

__all__ = [
    "AdvanceOutcome",
    "BACKENDS",
    "DEFAULT_QUANTUM",
    "ExecConfig",
    "GlobalTopKMerger",
    "HashPartitionPlan",
    "PartitionStats",
    "ShardWorker",
    "ShardedRankJoin",
    "partition_instance",
    "partition_relation",
    "result_identity",
    "stable_key_hash",
]
