"""Sharded execution for rank joins — kept for the benchmark harness probe.

Hash-partition both inputs by join key, run an independent PBRJ-family
operator per shard in bounded pull quanta, and merge shard outputs
through a gate that releases a result only once no live shard can beat
or tie it.  The facade is :class:`ShardedRankJoin`, a
:class:`~repro.core.stepping.ResumableOperator`.

Nothing else in the package imports this one: no query, flag, workload
file or wire request can ask for sharding.  The frozen benchmark harness
builds :class:`ShardedRankJoin` directly for its ``exec.shards2_ratio``
probe; once that probe is dropped, this directory goes.

Correctness invariant (test-enforced): for any instance, operator and
shard count, the sharded top-K equals the serial top-K — same
scores bit-for-bit, ties broken by the canonical tie order of
:func:`repro.core.pbrj.result_identity`.
"""

from repro.exec.engine import ShardedRankJoin
from repro.exec.merge import GlobalTopKMerger
from repro.exec.partition import (
    HashPartitionPlan,
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
    "ShardWorker",
    "ShardedRankJoin",
    "partition_instance",
    "partition_relation",
    "stable_key_hash",
]
