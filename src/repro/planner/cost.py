"""Calibrated cost model for candidate rank-join plans.

A candidate is a core and an operator.  The model predicts wall-clock
seconds for one query under one candidate from:

* a depth estimate ``D`` (:mod:`repro.planner.estimate` — the corner-model
  prediction of total pulls an operator needs), scaled per operator by
  :data:`OPERATOR_FACTORS` (tighter bounds read shallower and pay more
  per pull), and
* machine-specific :class:`CostCoefficients` — the cost of one pull, and
  for any-k the cost per input tuple, per joining pair and per result.

Coefficients resolve in priority order: explicitly installed via
:func:`set_coefficients` → a one-shot micro-benchmark (:func:`measure`,
~100 ms, cached for the process) → library defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

#: (depth_factor, pull_factor) per PBRJ operator, relative to the
#: corner-model depth estimate and the HRJN* per-pull cost.  Tighter
#: bounds read shallower but cost more per pull.
OPERATOR_FACTORS: dict[str, tuple[float, float]] = {
    "HRJN": (1.05, 0.9),
    "HRJN*": (1.0, 1.0),
    "PBRJ_FR^RR": (0.95, 1.6),
    "FRPA": (0.75, 1.6),
    "FRPA_RR": (0.8, 1.5),
    "a-FRPA": (0.8, 1.4),
}
DEFAULT_OPERATOR_FACTORS = (1.0, 1.2)


@dataclass(frozen=True)
class CostCoefficients:
    """Machine-specific unit costs, in seconds (or dimensionless factors)."""

    pull_pbrj: float = 2.5e-5          # HRJN*-style cost per pull
    pull_anyk: float = 1.0e-5          # any-k DP cost per input tuple
    anyk_pair: float = 2.0e-7          # any-k DP cost per joining pair
    anyk_result: float = 6.0e-5        # any-k cost per emitted result
    multiway_factor: float = 1.0       # extra per-pull cost per chain edge


def measure(*, seed: int = 0) -> CostCoefficients:
    """Micro-benchmark the dominant unit costs on this machine.

    Times an HRJN* run and an any-k run over one small synthetic instance
    (~600 tuples per side) — roughly 100 ms total.
    """
    from repro.core.operators import ANYK_OPERATOR, make_operator
    from repro.data.workload import random_instance

    instance = random_instance(
        n_left=600, n_right=600, e_left=2, e_right=2,
        num_keys=60, k=20, seed=seed,
    )
    coeffs = CostCoefficients()

    def timed(name: str) -> tuple[float, object]:
        operator = make_operator(name, instance)
        started = time.perf_counter()
        operator.top_k(instance.k)
        return time.perf_counter() - started, operator

    hrjn_seconds, hrjn = timed("HRJN*")
    pull_pbrj = max(hrjn_seconds / max(hrjn.pulls, 1), 1e-8)
    anyk_seconds, _ = timed(ANYK_OPERATOR)
    total = len(instance.left) + len(instance.right)
    pairs = instance.join_size() * coeffs.anyk_pair
    pull_anyk = max(
        (anyk_seconds - instance.k * coeffs.anyk_result - pairs) / total, 1e-8
    )
    return replace(coeffs, pull_pbrj=pull_pbrj, pull_anyk=pull_anyk)


_installed: CostCoefficients | None = None
_resolved: CostCoefficients | None = None


def set_coefficients(coeffs: CostCoefficients | None) -> None:
    """Install explicit coefficients (``None`` returns to auto-resolution)."""
    global _installed, _resolved
    _installed = coeffs
    _resolved = None


def coefficients() -> CostCoefficients:
    """The active coefficients (resolved once per process, then cached)."""
    global _resolved
    if _installed is not None:
        return _installed
    if _resolved is None:
        _resolved = _resolve()
    return _resolved


def _resolve() -> CostCoefficients:
    try:
        return measure()
    except Exception:
        return CostCoefficients()


@dataclass(frozen=True)
class PlanCandidate:
    """One point in the configuration space the planner enumerates."""

    algorithm: str
    operator: str

    def label(self) -> str:
        if self.algorithm == "anyk":
            return "anyk"
        return f"{self.algorithm}/{self.operator}"


@dataclass(frozen=True)
class CandidateCost:
    """A candidate plus its predicted cost and the cost breakdown."""

    candidate: PlanCandidate
    cost: float
    detail: dict[str, float]


def _operator_factors(operator: str) -> tuple[float, float]:
    return OPERATOR_FACTORS.get(operator, DEFAULT_OPERATOR_FACTORS)


def score_pbrj_candidate(
    candidate: PlanCandidate,
    *,
    coeffs: CostCoefficients,
    depth: int,
) -> CandidateCost:
    """Predict wall-clock seconds for a binary PBRJ plan."""
    depth_factor, pull_factor = _operator_factors(candidate.operator)
    effective_depth = max(float(depth) * depth_factor, 1.0)
    cost = effective_depth * (coeffs.pull_pbrj * pull_factor)
    return CandidateCost(
        candidate=candidate,
        cost=cost,
        detail={"depth": effective_depth, "compute": cost},
    )


def score_anyk_candidate(
    candidate: PlanCandidate,
    *,
    coeffs: CostCoefficients,
    total_tuples: int,
    k: int,
    join_size: float = 0.0,
) -> CandidateCost:
    """Predict wall-clock seconds for an any-k plan.

    The DP is linear in the input plus the joining pairs its per-key
    match groups enumerate (dense joins tax the DP; the PBRJ threshold
    never materializes them).
    """
    build = total_tuples * coeffs.pull_anyk + join_size * coeffs.anyk_pair
    cost = build + k * coeffs.anyk_result
    return CandidateCost(
        candidate=candidate,
        cost=cost,
        detail={"depth": float(total_tuples), "compute": cost},
    )


def score_multiway_pbrj(
    candidate: PlanCandidate,
    *,
    coeffs: CostCoefficients,
    depth: float,
    arity: int,
) -> CandidateCost:
    """Predict wall-clock seconds for the multiway (chain) PBRJ operator."""
    pull_cost = coeffs.pull_pbrj * (1.0 + coeffs.multiway_factor * (arity - 1))
    cost = max(depth, 1.0) * pull_cost
    return CandidateCost(
        candidate=candidate,
        cost=cost,
        detail={"depth": float(depth), "compute": cost},
    )
