"""Cost-based planning for rank join evaluation: a core and an operator.

Instead of hand-picking the evaluation core (``pbrj`` / ``anyk``) and the
PBRJ operator per query, a :class:`Planner` counts the join and estimates
how deep each operator would read (:mod:`repro.planner.estimate`, one
estimator for every arity), prices every candidate with a calibrated
cost model (:mod:`repro.planner.cost`) and returns an explainable
:class:`PlanDecision` — three candidates for a binary query, two for a
chain.  Sharding is not on the menu: it lost every measured cell to the
best unsharded plan (EXPERIMENTS.md), and no query can ask for it.

Entry points: ``QuerySpec(algorithm="auto")``, ``--algorithm auto`` on
``run``/``serve``, and ``"algorithm": "auto"`` in a workload file or on
the wire.  :func:`set_coefficients` is the one way to fix the cost
model's coefficients.
"""

from repro.planner.cost import (
    CandidateCost,
    CostCoefficients,
    PlanCandidate,
    coefficients,
    measure,
    set_coefficients,
)
from repro.planner.estimate import (
    DepthEstimate,
    clear_depth_cache,
    clear_stats_caches,
    estimate_depths,
    estimate_terminal_score,
    join_count,
)
from repro.planner.planner import PlanDecision, Planner

__all__ = [
    "CandidateCost",
    "CostCoefficients",
    "DepthEstimate",
    "PlanCandidate",
    "PlanDecision",
    "Planner",
    "clear_depth_cache",
    "clear_stats_caches",
    "coefficients",
    "estimate_depths",
    "estimate_terminal_score",
    "join_count",
    "measure",
    "set_coefficients",
]
