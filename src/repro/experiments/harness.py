"""Experiment harness: run operators on instances, average over seeds.

The paper repeats every experiment over five random data instances
(identical parameters, different seeds) and reports means.  The harness
reproduces that protocol and additionally records when a run hit its
wall-clock cap (the paper's ">10 hours, omitted" situations at e=4).  The
cap is the runner's, not the operator's: operators take no budget, and a
capped run steps its operator through ``try_next`` and reads the clock
between steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.core.operators import make_operator
from repro.core.stepping import PENDING
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.obs import Observability
from repro.relation.relation import RankJoinInstance
from repro.stats.metrics import (
    DepthReport,
    OperatorStats,
    TimingBreakdown,
    mean_depths,
    mean_timing,
)

#: Pulls per ``try_next`` step of a capped run.  The clock is read between
#: steps, so a run overshoots its cap by at most one step.  Measured on a
#: 2-vCPU Xeon: on Figure 13's e=4 cell (scale .002) a 16-pull step of
#: PBRJ_FR^RR's exact covers takes up to 1.3 s by the 90 s mark, under
#: 1.5 % of the cap; on the cheapest capped run, FRPA at e=2, a step's own
#: cost (≈ 10 µs: one call, one clock read) adds ≈ 7 %.  A smaller step
#: taxes every capped run, a larger one lets the e=4 cell run past its cap.
CAP_QUANTUM = 16


@dataclass(frozen=True)
class RunResult:
    """Outcome of one operator run on one instance."""

    stats: OperatorStats
    scores: tuple[float, ...]
    capped: bool = False

    @property
    def sum_depths(self) -> int:
        return self.stats.sum_depths


@dataclass(frozen=True)
class AveragedResult:
    """Seed-averaged measurements for one operator."""

    operator: str
    depths: DepthReport
    timing: TimingBreakdown
    io_cost: float
    capped_runs: int
    runs: int

    @property
    def sum_depths(self) -> int:
        return self.depths.sum_depths

    @property
    def capped(self) -> bool:
        """True if any contributing run hit its wall-clock cap."""
        return self.capped_runs > 0


def run_operator(
    name: str,
    instance: RankJoinInstance,
    *,
    k: int | None = None,
    max_seconds: float | None = None,
    operator_kwargs: dict | None = None,
    obs: Observability | None = None,
    run_meta: dict | None = None,
) -> RunResult:
    """Run one operator to its K-th result (or its cap) and measure.

    Uncapped, the operator runs as ``top_k`` would.  With ``max_seconds``
    it advances :data:`CAP_QUANTUM` pulls per step, and a run still short
    of K when the clock passes the cap ends ``capped`` with the prefix it
    proved.  With an observability pipeline attached, the operator
    registers its spans/metrics on it and a per-run ``run`` event (depths,
    timing, capped flag, any ``run_meta`` fields) is emitted when the run
    ends.
    """
    operator = make_operator(name, instance, obs=obs, **(operator_kwargs or {}))
    k = k if k is not None else instance.k
    quantum = None if max_seconds is None else CAP_QUANTUM
    deadline = None if max_seconds is None else time.perf_counter() + max_seconds
    results: list = []
    capped = False
    while len(results) < k:
        if deadline is not None and time.perf_counter() >= deadline:
            capped = True
            break
        outcome = operator.try_next(quantum)
        if outcome is None:
            break
        if outcome is not PENDING:
            results.append(outcome)
    result = RunResult(
        stats=operator.stats(),
        scores=tuple(r.score for r in results),
        capped=capped,
    )
    if obs is not None:
        stats = result.stats
        obs.event(
            "run",
            operator=name,
            depths={"left": stats.depths.left, "right": stats.depths.right,
                    "sum": stats.sum_depths},
            timing={"io": stats.timing.io, "bound": stats.timing.bound,
                    "other": stats.timing.other, "total": stats.timing.total},
            io_cost=stats.io_cost,
            bound_recomputations=stats.bound_recomputations,
            results=stats.results,
            capped=capped,
            **(run_meta or {}),
        )
    return result


def run_comparison(
    instance: RankJoinInstance,
    operators: list[str],
    *,
    operator_kwargs: dict | None = None,
    obs: Observability | None = None,
) -> dict[str, RunResult]:
    """Run several operators on identical scans of the same instance."""
    return {
        name: run_operator(
            name, instance, operator_kwargs=(operator_kwargs or {}).get(name), obs=obs,
        )
        for name in operators
    }


def averaged_runs(
    params: WorkloadParams,
    operators: list[str],
    *,
    num_seeds: int = 3,
    operator_kwargs: dict[str, dict] | None = None,
    operator_budgets: dict[str, float] | None = None,
    obs: Observability | None = None,
) -> dict[str, AveragedResult]:
    """The paper's protocol: same parameters, ``num_seeds`` data instances.

    ``operator_kwargs`` maps operator name to factory keyword arguments
    (e.g. a-FRPA's ``max_cr_size``).  ``operator_budgets`` maps operator
    name to its wall-clock cap in seconds (``run_operator``'s
    ``max_seconds``) — used to cap the exact-cover operators the way the
    paper aborted its e=4 runs, without touching the others.
    """
    per_operator: dict[str, list[RunResult]] = {name: [] for name in operators}
    for seed_offset in range(num_seeds):
        instance = lineitem_orders_instance(
            replace(params, seed=params.seed + seed_offset)
        )
        for name in operators:
            per_operator[name].append(
                run_operator(
                    name,
                    instance,
                    max_seconds=(operator_budgets or {}).get(name),
                    operator_kwargs=(operator_kwargs or {}).get(name),
                    obs=obs,
                    run_meta={
                        "seed": params.seed + seed_offset,
                        "e": params.e, "c": params.c, "z": params.z,
                        "k": params.k, "scale": params.scale,
                    },
                )
            )
    averaged = {}
    for name, runs in per_operator.items():
        averaged[name] = AveragedResult(
            operator=name,
            depths=mean_depths([r.stats.depths for r in runs]),
            timing=mean_timing([r.stats.timing for r in runs]),
            io_cost=sum(r.stats.io_cost for r in runs) / len(runs),
            capped_runs=sum(1 for r in runs if r.capped),
            runs=len(runs),
        )
    return averaged
