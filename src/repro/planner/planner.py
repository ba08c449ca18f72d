"""The planner facade: enumerate candidate plans, cost them, explain.

:class:`Planner` turns a query (relations + K + scoring, with any subset
of the execution axes pinned by the caller) into a :class:`PlanDecision`:
the chosen configuration plus the full per-candidate cost table, so every
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
from repro.core.scoring import ScoringFunction, SumScore
from repro.errors import InstanceError
from repro.plan.estimate import (
    DepthEstimate,
    estimate_binary_depths,
    estimate_chain_depths,
)
from repro.planner.cost import (
    CandidateCost,
    CostCoefficients,
    PlanCandidate,
    coefficients,
    score_anyk_candidate,
    score_multiway_pbrj,
    score_pbrj_candidate,
)
from repro.planner.stats import (
    JoinProfile,
    collect_join_stats,
    predicted_imbalance,
    shard_shares,
)
from repro.relation.relation import RankJoinInstance, Relation

_depth_cache: dict[tuple, DepthEstimate] = {}


@dataclass(frozen=True)
class PlannerConfig:
    """Enumeration bounds and estimator settings for a :class:`Planner`.

    The kernel is not an axis: selection is process-wide
    (:func:`repro.kernels.set_backend`), never part of a plan.
    """

    shard_choices: tuple[int, ...] = (1, 2, 4, 8)
    operators: tuple[str, ...] = ("HRJN*", "FRPA")
    include_anyk: bool = True
    samples: int = 800
    seed: int = 0


@dataclass(frozen=True)
class PlanDecision:
    """A chosen plan plus everything needed to explain the choice."""

    chosen: CandidateCost
    candidates: tuple[CandidateCost, ...]
    join_size: float
    depth: int
    key_zipf: float
    hot_share: float
    planning_seconds: float = field(compare=False, default=0.0)

    @property
    def algorithm(self) -> str:
        return self.chosen.candidate.algorithm

    @property
    def operator(self) -> str:
        return self.chosen.candidate.operator

    @property
    def shards(self) -> int:
        return self.chosen.candidate.shards

    @property
    def partitioner(self) -> str:
        return self.chosen.candidate.partitioner

    @property
    def backend(self) -> str:
        """Always ``"serial"``.  Read by the frozen benchmark harness
        (``benchmarks/harness/layers.py``) alone; the next harness-only PR
        removes it together with ``ExecConfig.backend``."""
        return "serial"

    def summary(self) -> str:
        return self.chosen.candidate.label()

    def table(self) -> str:
        """Fixed-width per-candidate cost table, cheapest first."""
        lines = [
            f"plan: {self.summary()}  "
            f"(join={self.join_size:.0f} depth~{self.depth} "
            f"key-zipf={self.key_zipf:.2f} hot={self.hot_share:.2f} "
            f"planned in {self.planning_seconds * 1e3:.1f}ms)",
            f"  {'candidate':<34} {'est cost':>10} {'depth':>8} "
            f"{'imbal':>6}  breakdown",
        ]
        for entry in self.candidates:
            mark = "*" if entry is self.chosen else " "
            detail = entry.detail
            lines.append(
                f" {mark}{entry.candidate.label():<34} "
                f"{entry.cost * 1e3:>8.2f}ms "
                f"{detail['depth']:>8.0f} "
                f"{detail['imbalance']:>6.2f}  "
                f"compute {detail['compute'] * 1e3:.2f}ms"
                f" + rounds {detail['rounds'] * 1e3:.2f}ms"
                f" + startup {detail['startup'] * 1e3:.2f}ms"
            )
        return "\n".join(lines)


def _scoring_key(scoring: ScoringFunction) -> str:
    state = getattr(scoring, "__dict__", {})
    inner = ",".join(f"{k}={state[k]!r}" for k in sorted(state))
    return f"{type(scoring).__name__}({inner})"


class Planner:
    """Cost-based plan selection over the planner statistics."""

    def __init__(
        self,
        *,
        coeffs: CostCoefficients | None = None,
        config: PlannerConfig | None = None,
        obs=None,
    ) -> None:
        self._coeffs = coeffs
        self.config = config or PlannerConfig()
        self.obs = obs

    @property
    def coeffs(self) -> CostCoefficients:
        return self._coeffs if self._coeffs is not None else coefficients()

    def plan(
        self,
        relations: list[Relation],
        k: int,
        scoring: ScoringFunction | None = None,
        *,
        algorithm: str = "auto",
        shards: int | str = "auto",
        operator: str | None = None,
        partitioner: str | None = None,
        join_attrs: tuple[str, ...] = (),
    ) -> PlanDecision:
        """Choose a plan; any non-``auto``/non-``None`` axis is pinned."""
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
            decision = self._plan_binary(
                relations, k, scoring,
                algorithm=algorithm, shards=shards, operator=operator,
                partitioner=partitioner,
            )
        else:
            decision = self._plan_multiway(
                relations, list(join_attrs), k, scoring, algorithm=algorithm
            )
        decision = PlanDecision(
            chosen=decision.chosen,
            candidates=decision.candidates,
            join_size=decision.join_size,
            depth=decision.depth,
            key_zipf=decision.key_zipf,
            hot_share=decision.hot_share,
            planning_seconds=time.perf_counter() - started,
        )
        if self.obs is not None:
            self.obs.metrics.counter(
                "planner_decisions_total",
                algorithm=decision.algorithm,
                shards=str(decision.shards),
            ).inc()
        return decision

    # -- binary ---------------------------------------------------------

    def _plan_binary(
        self,
        relations: list[Relation],
        k: int,
        scoring: ScoringFunction,
        *,
        algorithm: str,
        shards: int | str,
        operator: str | None,
        partitioner: str | None,
    ) -> PlanDecision:
        left, right = relations
        profile = collect_join_stats(left, right)
        depth = self._depth_estimate(left, right, k, scoring)
        total_tuples = profile.left.cardinality + profile.right.cardinality
        coeffs = self.coeffs
        config = self.config

        algorithms = (algorithm,) if algorithm != "auto" else (
            ("pbrj", "anyk") if config.include_anyk else ("pbrj",)
        )
        shard_options: tuple[int, ...]
        if shards == "auto":
            shard_options = config.shard_choices
        else:
            shard_options = (int(shards),)
        operators = (operator,) if operator else config.operators

        shares_cache: dict[tuple[int, str], tuple[float, ...]] = {}

        def shares_for(count: int, part: str) -> tuple[float, ...]:
            cached = shares_cache.get((count, part))
            if cached is None:
                cached = shard_shares(profile, count, part)
                shares_cache[(count, part)] = cached
            return cached

        candidates: list[CandidateCost] = []
        for algo in algorithms:
            for shard_count in shard_options:
                if shard_count == 1:
                    partitioner_options = ("hash",)
                else:
                    partitioner_options = (
                        (partitioner,) if partitioner else ("hash", "skew")
                    )
                for part in partitioner_options:
                    shares = shares_for(shard_count, part)
                    if algo == "anyk":
                        # Sharding buys the DP nothing — only cost it
                        # when the user pinned shards > 1.
                        if shard_count > 1 and shards == "auto":
                            continue
                        candidate = PlanCandidate(
                            algorithm="anyk",
                            operator=ANYK_OPERATOR,
                            shards=shard_count,
                            partitioner=part,
                        )
                        candidates.append(score_anyk_candidate(
                            candidate, coeffs=coeffs,
                            total_tuples=total_tuples, k=k, shares=shares,
                            join_size=float(profile.join_size),
                        ))
                        continue
                    for op_name in operators:
                        candidates.append(score_pbrj_candidate(
                            PlanCandidate(
                                algorithm="pbrj",
                                operator=op_name,
                                shards=shard_count,
                                partitioner=part,
                            ),
                            coeffs=coeffs,
                            depth=depth.sum_depths,
                            total_tuples=total_tuples,
                            shares=shares,
                        ))
        return self._decide(
            candidates,
            join_size=float(profile.join_size),
            depth=depth.sum_depths,
            key_zipf=profile.key_zipf,
            hot_share=profile.hot_pair_share,
        )

    # -- multiway -------------------------------------------------------

    def _plan_multiway(
        self,
        relations: list[Relation],
        join_attrs: list[str],
        k: int,
        scoring: ScoringFunction,
        *,
        algorithm: str,
    ) -> PlanDecision:
        coeffs = self.coeffs
        total_tuples = sum(len(rel) for rel in relations)
        if len(join_attrs) == len(relations) - 1:
            depth = estimate_chain_depths(
                relations, join_attrs, k, scoring,
                samples=self.config.samples, seed=self.config.seed,
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
                PlanCandidate(
                    algorithm="pbrj", operator="HRJN*", shards=1,
                    partitioner="hash",
                ),
                coeffs=coeffs, depth=float(sum_depths), arity=len(relations),
            ))
        if algorithm in ("auto", "anyk") and self.config.include_anyk:
            candidates.append(score_anyk_candidate(
                PlanCandidate(
                    algorithm="anyk", operator=ANYK_OPERATOR, shards=1,
                    partitioner="hash",
                ),
                coeffs=coeffs, total_tuples=total_tuples, k=k,
            ))
        return self._decide(
            candidates,
            join_size=float(join_size),
            depth=sum_depths,
            key_zipf=0.0,
            hot_share=0.0,
        )

    # -- shared ---------------------------------------------------------

    def _depth_estimate(
        self,
        left: Relation,
        right: Relation,
        k: int,
        scoring: ScoringFunction,
    ) -> DepthEstimate:
        key = (
            left.fingerprint(), right.fingerprint(), k,
            _scoring_key(scoring), self.config.samples, self.config.seed,
        )
        cached = _depth_cache.get(key)
        if cached is None:
            instance = RankJoinInstance(left, right, scoring, k)
            cached = estimate_binary_depths(
                instance, samples=self.config.samples, seed=self.config.seed
            )
            _depth_cache[key] = cached
        return cached

    @staticmethod
    def _decide(
        candidates: list[CandidateCost],
        *,
        join_size: float,
        depth: int,
        key_zipf: float,
        hot_share: float,
    ) -> PlanDecision:
        if not candidates:
            raise InstanceError("the pinned axes leave no candidate plans")
        ordered = sorted(
            candidates, key=lambda c: (c.cost, c.candidate.label())
        )
        return PlanDecision(
            chosen=ordered[0],
            candidates=tuple(ordered),
            join_size=join_size,
            depth=depth,
            key_zipf=key_zipf,
            hot_share=hot_share,
        )


def clear_depth_cache() -> None:
    """Drop the planner's depth-estimate cache (tests)."""
    _depth_cache.clear()
