"""The planner facade: enumerate candidate plans, cost them, explain.

:class:`Planner` turns a query (relations + K + scoring, the evaluation
core optionally pinned by the caller) into a :class:`PlanDecision`: the
chosen core and operator plus the full per-candidate cost table, so every
decision is explainable after the fact (``decision.table()``).

Candidate enumeration is deterministic and the statistics behind it are
content-addressed and seeded, so the same inputs always produce the same
decision within a process — the property the ``algorithm="auto"`` query
cache and the bit-identity acceptance tests rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.operators import ALGORITHMS, ANYK_OPERATOR
from repro.core.scoring import ScoringFunction, SumScore, scoring_fingerprint
from repro.errors import InstanceError
from repro.plan.estimate import (
    DepthEstimate,
    estimate_binary_depths,
    estimate_chain_depths,
)
from repro.planner.cost import (
    CandidateCost,
    PlanCandidate,
    coefficients,
    score_anyk_candidate,
    score_multiway_pbrj,
    score_pbrj_candidate,
)
from repro.planner.stats import join_count, remember
from repro.relation.relation import RankJoinInstance, Relation

_depth_cache: dict[tuple, DepthEstimate] = {}

#: Sample size and seed of every depth estimate (both in its cache key).
_SAMPLES = 800
_SEED = 0


@dataclass(frozen=True)
class PlanDecision:
    """A chosen plan plus everything needed to explain the choice."""

    chosen: CandidateCost
    candidates: tuple[CandidateCost, ...]
    join_size: float
    depth: int
    planning_seconds: float = field(compare=False, default=0.0)

    @property
    def algorithm(self) -> str:
        return self.chosen.candidate.algorithm

    @property
    def operator(self) -> str:
        return self.chosen.candidate.operator

    # The three constants below are read by the frozen benchmark harness
    # (``benchmarks/harness/layers.py``) alone; the next harness-only PR
    # removes them together with ``ExecConfig.backend``.

    @property
    def shards(self) -> int:
        """Always 1: the planner does not choose sharding."""
        return 1

    @property
    def partitioner(self) -> str:
        """Always ``"hash"``."""
        return "hash"

    @property
    def backend(self) -> str:
        """Always ``"serial"``."""
        return "serial"

    def summary(self) -> str:
        return self.chosen.candidate.label()

    def table(self) -> str:
        """Fixed-width per-candidate cost table, cheapest first."""
        lines = [
            f"plan: {self.summary()}  "
            f"(join={self.join_size:.0f} depth~{self.depth} "
            f"planned in {self.planning_seconds * 1e3:.1f}ms)",
            f"  {'candidate':<16} {'est cost':>10} {'depth':>8}",
        ]
        for entry in self.candidates:
            mark = "*" if entry is self.chosen else " "
            lines.append(
                f" {mark}{entry.candidate.label():<16} "
                f"{entry.cost * 1e3:>8.2f}ms "
                f"{entry.detail['depth']:>8.0f}"
            )
        return "\n".join(lines)


class Planner:
    """Cost-based choice of evaluation core and operator.

    Neither the kernel nor sharding is an axis: the kernel form is the
    process-wide threshold table's (:mod:`repro.kernels.dispatch`), and
    no query can ask for sharding.
    Coefficients come from :func:`repro.planner.set_coefficients` or are
    measured once per process.
    """

    def __init__(self, *, obs=None) -> None:
        self.obs = obs

    def plan(
        self,
        relations: list[Relation],
        k: int,
        scoring: ScoringFunction | None = None,
        *,
        algorithm: str = "auto",
        join_attrs: tuple[str, ...] = (),
    ) -> PlanDecision:
        """Choose a plan; a non-``auto`` ``algorithm`` pins the core."""
        if algorithm != "auto" and algorithm not in ALGORITHMS:
            raise InstanceError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{ALGORITHMS + ('auto',)}"
            )
        if len(relations) < 2:
            raise InstanceError("planning needs at least two relations")
        scoring = scoring or SumScore()
        started = time.perf_counter()
        if len(relations) == 2:
            decision = self._plan_binary(relations, k, scoring, algorithm)
        else:
            decision = self._plan_multiway(
                relations, list(join_attrs), k, scoring, algorithm
            )
        decision = replace(
            decision, planning_seconds=time.perf_counter() - started
        )
        if self.obs is not None:
            self.obs.metrics.counter(
                "planner_decisions_total", algorithm=decision.algorithm
            ).inc()
        return decision

    # -- binary ---------------------------------------------------------

    def _plan_binary(
        self,
        relations: list[Relation],
        k: int,
        scoring: ScoringFunction,
        algorithm: str,
    ) -> PlanDecision:
        left, right = relations
        join_size = join_count(left, right)
        depth = self._depth_estimate(left, right, k, scoring, join_size)
        coeffs = coefficients()
        candidates: list[CandidateCost] = []
        if algorithm in ("auto", "pbrj"):
            candidates.extend(
                score_pbrj_candidate(
                    PlanCandidate("pbrj", operator),
                    coeffs=coeffs, depth=depth.sum_depths,
                )
                for operator in ("HRJN*", "FRPA")
            )
        if algorithm in ("auto", "anyk"):
            candidates.append(score_anyk_candidate(
                PlanCandidate("anyk", ANYK_OPERATOR),
                coeffs=coeffs, total_tuples=len(left) + len(right), k=k,
                join_size=float(join_size),
            ))
        return self._decide(
            candidates, join_size=float(join_size), depth=depth.sum_depths
        )

    # -- multiway -------------------------------------------------------

    def _plan_multiway(
        self,
        relations: list[Relation],
        join_attrs: list[str],
        k: int,
        scoring: ScoringFunction,
        algorithm: str,
    ) -> PlanDecision:
        coeffs = coefficients()
        total_tuples = sum(len(rel) for rel in relations)
        if len(join_attrs) == len(relations) - 1:
            depth = estimate_chain_depths(
                relations, join_attrs, k, scoring,
                samples=_SAMPLES, seed=_SEED,
            )
            join_size = depth.join_size
            sum_depths = depth.sum_depths
        else:
            # No chain attributes supplied: assume the pessimistic regime
            # (the multiway operator reads everything).
            join_size = float(total_tuples)
            sum_depths = total_tuples
        candidates: list[CandidateCost] = []
        if algorithm in ("auto", "pbrj"):
            candidates.append(score_multiway_pbrj(
                PlanCandidate("pbrj", "HRJN*"),
                coeffs=coeffs, depth=float(sum_depths), arity=len(relations),
            ))
        if algorithm in ("auto", "anyk"):
            candidates.append(score_anyk_candidate(
                PlanCandidate("anyk", ANYK_OPERATOR),
                coeffs=coeffs, total_tuples=total_tuples, k=k,
            ))
        return self._decide(
            candidates, join_size=float(join_size), depth=sum_depths
        )

    # -- shared ---------------------------------------------------------

    def _depth_estimate(
        self,
        left: Relation,
        right: Relation,
        k: int,
        scoring: ScoringFunction,
        join_size: int,
    ) -> DepthEstimate:
        key = (
            left.fingerprint(), right.fingerprint(), k,
            scoring_fingerprint(scoring), _SAMPLES, _SEED,
        )
        cached = _depth_cache.get(key)
        if cached is None:
            cached = estimate_binary_depths(
                RankJoinInstance(left, right, scoring, k),
                join_size=join_size,
                samples=_SAMPLES, seed=_SEED,
            )
            remember(_depth_cache, key, cached)
        return cached

    @staticmethod
    def _decide(
        candidates: list[CandidateCost], *, join_size: float, depth: int
    ) -> PlanDecision:
        ordered = sorted(
            candidates, key=lambda c: (c.cost, c.candidate.label())
        )
        return PlanDecision(
            chosen=ordered[0],
            candidates=tuple(ordered),
            join_size=join_size,
            depth=depth,
        )


def clear_depth_cache() -> None:
    """Drop the planner's depth-estimate cache (tests)."""
    _depth_cache.clear()
