"""Experiments beyond the paper's figures (EXPERIMENTS.md, "Ablations").

Each runs on *one* data instance — ``config.seed`` at ``config.scale``;
only :func:`ext_optimality_ratio` reads ``num_seeds`` — and the shapes they
reproduce are their expectations in :mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from functools import partial

from repro.core.afr_bound import AFRBound
from repro.core.bounds import CornerBound
from repro.core.jstar import jstar_from_instance
from repro.core.operators import make_operator, multiway_rank_join
from repro.core.oracle import certificate_optimal_sum_depths
from repro.core.scoring import SumScore
from repro.data.workload import (
    WorkloadParams,
    lineitem_orders_instance,
    pipeline_tables,
    random_instance,
)
from repro.experiments.figures import ALL_OPERATORS, PIPELINE_QUERIES, FigureConfig
from repro.experiments.harness import run_operator
from repro.experiments.report import ExperimentTable
from repro.plan.pipeline import Pipeline
from repro.relation.cost import CostModel


def _params(config: FigureConfig, **knobs) -> WorkloadParams:
    return WorkloadParams(z=0.5, k=10, scale=config.scale, seed=config.seed, **knobs)


class _SeparableSumScore(SumScore):
    """SumScore whose cross-product maximum takes the O(n + m) shortcut."""

    def max_prepared(self, left, right):
        # What FR* asks for (cover_max): the sum of the operands' maxima.
        return self.cover_max(left, right)


def ablation_separable(config: FigureConfig) -> ExperimentTable:
    """How much of the FR bound's cost is the cross product?  For additive
    scoring its maximum is separable (``max Σ = max_left + max_right``; not
    so for a general monotone ``S``): swapping that in leaves the bound's
    values, hence the depths, unchanged and removes exactly that work."""
    table = ExperimentTable(
        title="Ablation: cross-product vs separable cover bounds "
        "(PBRJ_FR^RR, e=2, c=.5, K=10)",
        headers=["variant", "sumDepths", "bound_time", "total_time"],
    )
    for label, scoring in (
        ("cross-product (general)", SumScore()),
        ("separable (additive-only)", _SeparableSumScore()),
    ):
        instance = lineitem_orders_instance(_params(config, e=2, c=0.5), scoring=scoring)
        result = run_operator("PBRJ_FR^RR", instance)
        timing = result.stats.timing
        table.add_row(label, result.sum_depths, timing.bound, timing.total)
    table.notes.append(
        "identical depths (the maxima are equal); the time difference is "
        "purely the cross-product work"
    )
    return table


def ext_baselines_e1(config: FigureConfig) -> ExperimentTable:
    """The PBRJ family against the J*-style operator (single-score inputs,
    positional access) at e=1: only the corner bound does not stop shallow."""
    instance = lineitem_orders_instance(_params(config, e=1, c=0.5))
    table = ExperimentTable(
        title="Extension: single-score baselines (e=1, c=.5, K=10)",
        headers=["operator", "sumDepths", "access model"],
    )
    jstar = jstar_from_instance(instance)
    jstar.top_k(instance.k)
    table.add_row("J*", jstar.sum_depths, "positional (random)")
    for name in ALL_OPERATORS:
        result = run_operator(name, instance)
        table.add_row(name, result.sum_depths, "sequential (streamed)")
    table.notes.append(
        "J* matches the feasible-region operators' shallow depths at e=1 "
        "but cannot consume pipelined streams"
    )
    return table


def ext_cost_models(config: FigureConfig) -> ExperimentTable:
    """HRJN* vs FRPA under costlier access than §6.1's clustered index (the
    *best case* for I/O): modeled total = Python CPU + simulated access cost."""
    table = ExperimentTable(
        title="Extension: access-cost sensitivity (e=2, c=.25, K=10)",
        headers=["access", "operator", "sumDepths", "cpu_time", "modeled_io", "modeled_total"],
    )
    for label, model in (
        ("clustered", CostModel.clustered_index()),
        ("unclustered", CostModel.unclustered_index()),
        ("network", CostModel.network_stream()),
    ):
        instance = lineitem_orders_instance(_params(config, e=2, c=0.25), cost_model=model)
        for operator in ("HRJN*", "FRPA"):
            stats = run_operator(operator, instance).stats
            cpu = stats.timing.total - stats.timing.io
            modeled_io = stats.io_cost * 20e-6  # one cost unit modeled as 20 µs
            table.add_row(
                label, operator, stats.sum_depths, cpu, modeled_io, cpu + modeled_io
            )
    table.notes.append(
        "modeled_total = Python CPU + simulated access cost; the robust "
        "operator wins once access is no longer nearly free"
    )
    return table


def ext_multiway(config: FigureConfig) -> ExperimentTable:
    """Multiway rank join vs pipelined binary plans on L⋈O⋈C (§2.1): a
    binary pipeline must order its intermediate stream under a bound that
    substitutes 1 for every attribute yet to come, which drains most of
    (L⋈O); the n-ary feasible-region bound certifies results directly.
    ``same_top_k`` compares each plan's scores with the first plan's."""
    params = _params(config, e=1, c=0.5)
    tables = pipeline_tables(params)
    specs, rekeys = PIPELINE_QUERIES["L⋈O⋈C"]
    relations = [tables[name].to_relation(key) for name, key in specs]
    multiway = partial(multiway_rank_join, relations, ["orderkey", "custkey"], SumScore())
    plans = [
        ("multiway FR (n-ary feasible bound)", multiway(bound=AFRBound())),
        ("multiway corner", multiway(bound=CornerBound())),
        ("binary pipeline (a-FRPA)", Pipeline(relations, rekeys, operator="a-FRPA")),
        ("binary pipeline (HRJN*)", Pipeline(relations, rekeys, operator="HRJN*")),
    ]
    table = ExperimentTable(
        title="Extension: multiway vs binary pipelines on L⋈O⋈C "
        "(e=1, c=.5, K=10)",
        headers=["plan", "sumDepths", "total_time", "same_top_k"],
    )
    reference = None
    for label, plan in plans:
        scores = [r.score for r in plan.top_k(params.k)]
        reference = scores if reference is None else reference
        same = "yes" if scores == reference else "NO"
        table.add_row(label, plan.sum_depths, plan.timing().total, same)
    table.notes.append(
        "the n-ary feasible bound avoids the binary pipelines' intermediate "
        "ordering tax — the theoretical multiway advantage, measured"
    )
    return table


def ext_optimality_ratio(config: FigureConfig) -> ExperimentTable:
    """sumDepths / legal OPT on ``config.num_seeds`` random instances:
    Theorem 4.3's ``2 x OPT + c``, measured — OPT, the cheapest prefix pair
    whose tight feasible-region bound proves the top-K, is computable
    offline (:mod:`repro.core.oracle`)."""
    operators = ["FRPA", "a-FRPA", "PBRJ_FR^RR", "HRJN*"]
    ratios: dict[str, list[float]] = {name: [] for name in operators}
    for offset in range(config.num_seeds):
        instance = random_instance(
            n_left=150, n_right=150, e_left=2, e_right=2,
            num_keys=15, k=5, cut=0.5, seed=config.seed + offset,
        )
        opt = certificate_optimal_sum_depths(instance)
        for name in operators:
            operator = make_operator(name, instance)
            operator.top_k(instance.k)
            ratios[name].append(operator.sum_depths / opt)
    table = ExperimentTable(
        title="Extension: measured optimality ratios (sumDepths / legal OPT)",
        headers=["operator", "max_ratio", "mean_ratio"],
    )
    for name, values in ratios.items():
        table.add_row(name, max(values), sum(values) / len(values))
    table.notes.append(
        f"over {config.num_seeds} random instances (150x150, e=2, c=.5, K=5); "
        "theory: FRPA <= 2 always, corner bound unbounded"
    )
    return table


def ext_scaling(
    config: FigureConfig,
    scales: tuple[float, ...] = (0.0005, 0.001, 0.002, 0.004),
) -> ExperimentTable:
    """FRPA's depth against data size (§6.1: "not a parameter" of the
    study).  The sweep *is* the scale, so ``config.scale`` is not read."""
    table = ExperimentTable(
        title="Extension: depth vs data scale (e=2, c=.5, K=10, FRPA)",
        headers=["scale", "input_size", "sumDepths", "fraction"],
    )
    for scale in scales:
        instance = lineitem_orders_instance(
            WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=scale, seed=config.seed)
        )
        size = len(instance.left) + len(instance.right)
        depth = run_operator("FRPA", instance).sum_depths
        table.add_row(scale, size, depth, depth / size)
    table.notes.append(
        "paper §6.1: data size is not a parameter — operators read a "
        "prefix whose length is set by K and the score distribution"
    )
    return table
