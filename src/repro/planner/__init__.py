"""Skew-adaptive cost-based planning for rank join evaluation.

The planner closes the loop the ROADMAP calls for: instead of hand-picking
algorithm / operator / shard count / partitioner per query, a
:class:`Planner` derives statistics from the inputs
(:mod:`repro.planner.stats`), scores every candidate configuration with a
calibrated cost model (:mod:`repro.planner.cost`), and returns an
explainable :class:`PlanDecision`.  At runtime,
:class:`AdaptiveShardedRankJoin` (:mod:`repro.planner.adaptive`) watches
observed shard imbalance and live-migrates a running query to a
re-partitioned layout without changing a single emitted result.

Entry points: ``QuerySpec(algorithm="auto", shards="auto")``, the
``--plan auto`` CLI flag on ``run``/``serve``, and the ``shards``
workload-file key.
"""

from repro.planner.adaptive import AdaptiveConfig, AdaptiveShardedRankJoin
from repro.planner.cost import (
    CandidateCost,
    CostCoefficients,
    PlanCandidate,
    coefficients,
    measure,
    set_coefficients,
)
from repro.planner.planner import (
    PlanDecision,
    Planner,
    PlannerConfig,
    clear_depth_cache,
)
from repro.planner.stats import (
    JoinProfile,
    RelationProfile,
    clear_stats_caches,
    collect_join_stats,
    collect_stats,
    fit_zipf_exponent,
    predicted_imbalance,
    shard_shares,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveShardedRankJoin",
    "CandidateCost",
    "CostCoefficients",
    "JoinProfile",
    "PlanCandidate",
    "PlanDecision",
    "Planner",
    "PlannerConfig",
    "RelationProfile",
    "clear_depth_cache",
    "clear_stats_caches",
    "coefficients",
    "collect_join_stats",
    "collect_stats",
    "fit_zipf_exponent",
    "measure",
    "predicted_imbalance",
    "set_coefficients",
    "shard_shares",
]
