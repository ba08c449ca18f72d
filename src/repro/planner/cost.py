"""Calibrated cost model for candidate rank-join plans.

The model predicts wall-clock seconds for one query under one candidate
configuration (algorithm, operator, shard count, partitioner) from:

* a depth estimate ``D`` (:mod:`repro.plan.estimate` — the corner-model
  prediction of total pulls a serial operator needs),
* the join's exact per-shard result shares under the candidate
  partitioning (:func:`repro.planner.stats.shard_shares`), and
* machine-specific :class:`CostCoefficients`.

The PBRJ formulas encode the two effects the benchmarks establish:

* **Cover shrink** — a shard holding share ``s`` of the join pairs pulls
  roughly ``D · s`` tuples *and* pays a per-pull cost that shrinks with
  shard size (smaller feasible-region covers, fewer bound candidates), so
  total work ``≈ D · Σ sᵢ^(1+γ)`` — for balanced shards an ``S^γ``
  algorithmic speedup on one CPU (EXPERIMENTS.md, "Sharding: serial vs
  process": ~5× at 4 shards on uniform e=5), but under skew the hot
  shard's large share eats the win, which is exactly what steers the
  planner to the skew-aware partitioner.
* **Coordination overhead** — per-round dispatch and per-shard startup
  costs, plus the O(n) split of both inputs.

Coefficients resolve in priority order: explicitly installed via
:func:`set_coefficients` (or ``ReproConfig.planner_coeffs``) → a one-shot
micro-benchmark (:func:`measure`, ~100 ms, cached for the process) →
library defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

#: Scheduling quantum assumed for round-count prediction (the engine
#: default; the planner does not enumerate quantum as an axis).
ASSUMED_QUANTUM = 32

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

    pull_pbrj: float = 2.5e-5          # HRJN*-style cost per pull, serial
    pull_anyk: float = 1.0e-5          # any-k DP cost per input tuple
    anyk_pair: float = 2.0e-7          # any-k DP cost per joining pair
    anyk_result: float = 6.0e-5        # any-k cost per emitted result
    cover_exponent: float = 1.0        # γ in the D·Σ s^(1+γ) work model
    multiway_factor: float = 1.0       # extra per-pull cost per chain edge
    partition_per_tuple: float = 4.0e-6  # split/copy both inputs when shards > 1
    round_serial: float = 3.0e-6       # per shard-request dispatch, per round
    startup_serial: float = 2.0e-5     # one-time per-shard setup

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "CostCoefficients":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown cost coefficient(s): {', '.join(unknown)}")
        return replace(cls(), **payload)


def measure(*, seed: int = 0) -> CostCoefficients:
    """Micro-benchmark the dominant unit costs on this machine.

    Times a serial HRJN*/FRPA run and an any-k run over one small synthetic
    instance (~600 tuples per side) — roughly 100 ms total.  Coordination
    coefficients keep their defaults: they only tilt choices
    between configurations whose compute costs are already close.
    """
    from repro.core.operators import make_operator
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
    anyk_seconds, _ = timed("AnyK")
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
    shards: int
    partitioner: str

    def label(self) -> str:
        if self.algorithm == "anyk" and self.shards == 1:
            return "anyk"
        parts = [f"{self.algorithm}/{self.operator}"]
        if self.shards > 1:
            # "/serial" is part of the label: stats briefs, ``top`` and the
            # planner tests match plan labels byte for byte.
            parts.append(f"x{self.shards} {self.partitioner}/serial")
        return " ".join(parts)


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
    total_tuples: int,
    shares: tuple[float, ...],
) -> CandidateCost:
    """Predict wall-clock seconds for a (possibly sharded) PBRJ plan."""
    depth_factor, pull_factor = _operator_factors(candidate.operator)
    effective_depth = max(float(depth) * depth_factor, 1.0)
    pull_cost = coeffs.pull_pbrj * pull_factor
    gamma = coeffs.cover_exponent
    live = [s for s in shares if s > 0] or [1.0]
    compute = effective_depth * pull_cost * sum(s ** (1.0 + gamma) for s in live)
    hottest = max(live)
    rounds_cost = startup = partition = 0.0
    if candidate.shards > 1:
        rounds = effective_depth * hottest / ASSUMED_QUANTUM
        rounds_cost = rounds * len(live) * coeffs.round_serial
        startup = len(live) * coeffs.startup_serial
        # Splitting both inputs into per-shard sub-relations is a full
        # O(n) scan-and-copy — at small input sizes it dwarfs the cover
        # shrink, which is what keeps the planner serial on small joins.
        partition = total_tuples * coeffs.partition_per_tuple
    cost = compute + rounds_cost + startup + partition
    return CandidateCost(
        candidate=candidate,
        cost=cost,
        detail={
            "depth": effective_depth,
            "imbalance": hottest * len(shares),
            "compute": compute,
            "rounds": rounds_cost,
            "startup": startup,
            "partition": partition,
        },
    )


def score_anyk_candidate(
    candidate: PlanCandidate,
    *,
    coeffs: CostCoefficients,
    total_tuples: int,
    k: int,
    shares: tuple[float, ...] = (1.0,),
    join_size: float = 0.0,
) -> CandidateCost:
    """Predict wall-clock seconds for an any-k plan.

    The DP is linear in the input plus the joining pairs its per-key
    match groups enumerate (dense joins tax the DP; the PBRJ threshold
    never materializes them).  Sharding buys nothing algorithmic; a
    sharded any-k plan (user-forced) just splits the linear pass and
    pays coordination.
    """
    live = [s for s in shares if s > 0] or [1.0]
    build = total_tuples * coeffs.pull_anyk + join_size * coeffs.anyk_pair
    enumerate_cost = k * coeffs.anyk_result * len(live)
    startup = 0.0
    partition = 0.0
    if candidate.shards > 1:
        startup = len(live) * coeffs.startup_serial
        partition = total_tuples * coeffs.partition_per_tuple
    cost = build + enumerate_cost + startup + partition
    return CandidateCost(
        candidate=candidate,
        cost=cost,
        detail={
            "depth": float(total_tuples),
            "imbalance": max(live) * len(shares),
            "compute": build + enumerate_cost,
            "rounds": 0.0,
            "startup": startup,
            "partition": partition,
        },
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
        detail={
            "depth": float(depth),
            "imbalance": 1.0,
            "compute": cost,
            "rounds": 0.0,
            "startup": 0.0,
        },
    )
