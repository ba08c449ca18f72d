"""Cost-based planning for rank join evaluation: a core and an operator.

Instead of hand-picking the evaluation core (``pbrj`` / ``anyk``) and the
PBRJ operator per query, a :class:`Planner` counts the join once
(:mod:`repro.planner.stats`), estimates how deep each operator would read
(:mod:`repro.plan.estimate`), prices every candidate with a calibrated
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
from repro.planner.planner import (
    PlanDecision,
    Planner,
    clear_depth_cache,
)
from repro.planner.stats import clear_stats_caches, join_count

__all__ = [
    "CandidateCost",
    "CostCoefficients",
    "PlanCandidate",
    "PlanDecision",
    "Planner",
    "clear_depth_cache",
    "clear_stats_caches",
    "coefficients",
    "join_count",
    "measure",
    "set_coefficients",
]
