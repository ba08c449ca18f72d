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
from dataclasses import dataclass, field

from repro.core.operators import ALGORITHMS, ANYK_OPERATOR
from repro.core.scoring import ScoringFunction
from repro.errors import InstanceError
from repro.planner.cost import (
    CandidateCost,
    PlanCandidate,
    coefficients,
    score_anyk_candidate,
    score_multiway_pbrj,
    score_pbrj_candidate,
)
from repro.planner.estimate import estimate_depths
from repro.relation.relation import Relation


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
        """Choose a plan; a non-``auto`` ``algorithm`` pins the core.

        Two relations join on the tuple key; more join along the chain
        ``join_attrs`` (without them, every input is assumed read whole).
        """
        if algorithm != "auto" and algorithm not in ALGORITHMS:
            raise InstanceError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{ALGORITHMS + ('auto',)}"
            )
        arity = len(relations)
        if arity < 2:
            raise InstanceError("planning needs at least two relations")
        if arity == 2 and join_attrs:
            raise InstanceError("binary queries join on the tuple key; "
                                "join_attrs is for 3+ relations")
        if k < 1:
            raise InstanceError("K must be positive")
        started = time.perf_counter()
        total_tuples = sum(len(rel) for rel in relations)
        if arity == 2 or len(join_attrs) == arity - 1:
            estimate = estimate_depths(relations, k, scoring, join_attrs)
            join_size, depth = estimate.join_size, estimate.sum_depths
        else:
            join_size = depth = total_tuples
        coeffs = coefficients()
        candidates: list[CandidateCost] = []
        if algorithm in ("auto", "pbrj"):
            if arity == 2:
                candidates.extend(
                    score_pbrj_candidate(
                        PlanCandidate("pbrj", operator), coeffs=coeffs, depth=depth
                    )
                    for operator in ("HRJN*", "FRPA")
                )
            else:
                candidates.append(score_multiway_pbrj(
                    PlanCandidate("pbrj", "HRJN*"),
                    coeffs=coeffs, depth=float(depth), arity=arity,
                ))
        if algorithm in ("auto", "anyk"):
            # Only a binary any-k plan is charged for its joining pairs; a
            # chain's is priced on its input alone (the plan golden pins both).
            candidates.append(score_anyk_candidate(
                PlanCandidate("anyk", ANYK_OPERATOR),
                coeffs=coeffs, total_tuples=total_tuples, k=k,
                join_size=float(join_size) if arity == 2 else 0.0,
            ))
        ordered = sorted(candidates, key=lambda c: (c.cost, c.candidate.label()))
        decision = PlanDecision(
            chosen=ordered[0],
            candidates=tuple(ordered),
            join_size=float(join_size),
            depth=depth,
            planning_seconds=time.perf_counter() - started,
        )
        if self.obs is not None:
            self.obs.metrics.counter(
                "planner_decisions_total", algorithm=decision.algorithm
            ).inc()
        return decision
