"""Per-figure experiment definitions (Section 6 of the paper).

Each ``figure_XX`` function regenerates the series plotted in the paper's
corresponding figure and returns an :class:`ExperimentTable`.  Absolute
numbers differ from the paper (different data scale and substrate — see
DESIGN.md); the *shapes* (orderings, gaps, crossovers) are the reproduction
target and are recorded in EXPERIMENTS.md.

All experiments follow the paper's methodology: Lineitem ⋈ Orders with a
summing scoring function, parameters from Table 2, averaged over several
seeded data instances.  Where the paper's exact parameter point is
insensitive at our reduced data scale (the paper runs TPC-H SF 1 — 6M-row
Lineitem — where every operator reaches thousands of tuples deep), a figure
notes the adapted parameters; the original point can always be requested
explicitly.

Columns:

* ``sumDepths`` — the paper's I/O metric (tuples pulled).
* ``bound_time`` / ``total_time`` — measured wall-clock seconds.
* ``model_time`` — total CPU time plus *modeled* I/O
  (``sumDepths x io_latency``); with in-memory Python scans, measured I/O
  is nearly free, so this column restores the paper's disk/network-weighted
  time shape (``io_latency`` defaults to 0.5 ms/tuple).

Capped runs (wall-clock cap hit — the paper's ">10 hours, omitted") are
reported as NaN and rendered as "—".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operators import ANYK_OPERATOR
from repro.data.workload import WorkloadParams, pipeline_tables
from repro.experiments.harness import AveragedResult, averaged_runs
from repro.experiments.report import ExperimentTable
from repro.plan.pipeline import Pipeline

#: Default data scale for figure experiments (Lineitem = 24_000 rows,
#: Orders = 6_000).  The paper uses TPC-H SF 1; pure Python needs less.
FIGURE_SCALE = 0.004

#: Seeds averaged per configuration (the paper uses 5).
DEFAULT_SEEDS = 2

#: Wall-clock cap per run for the exact-cover operators, standing in for
#: the paper's ">10 hours → omitted" rule.
EXACT_COVER_BUDGET_S = 90.0

ALL_OPERATORS = ["HRJN*", "PBRJ_FR^RR", "FRPA", "a-FRPA"]
NAN = float("nan")

@dataclass(frozen=True)
class FigureConfig:
    """Shared experiment knobs (scale, repetitions, modeled I/O latency)."""

    scale: float = FIGURE_SCALE
    num_seeds: int = DEFAULT_SEEDS
    seed: int = 0
    io_latency: float = 0.0005  # modeled seconds per tuple access
    exact_budget_s: float = EXACT_COVER_BUDGET_S
    #: ``"pbrj"`` (paper operators) or ``"anyk"`` — swaps the operator
    #: list of the comparison figures (registry entries with ``anyk=True``:
    #: Figures 10/11/15 and the ablations probe PBRJ internals and stay
    #: pbrj-only).
    algorithm: str = "pbrj"

    def budgets(self) -> dict[str, float]:
        """Per-operator wall-clock caps: cap only the exact-cover operators."""
        return dict.fromkeys(("PBRJ_FR^RR", "FRPA", "FRPA_RR"), self.exact_budget_s)

    def comparison_operators(self, default: list[str]) -> list[str]:
        """The operator list a comparison figure should sweep."""
        return [ANYK_OPERATOR] if self.algorithm == "anyk" else default


def _depth(result: AveragedResult) -> float:
    return NAN if result.capped else result.sum_depths


def _time(result: AveragedResult) -> float:
    return NAN if result.capped else result.timing.total


def _model_time(result: AveragedResult, io_latency: float) -> float:
    if result.capped:
        return NAN
    cpu = result.timing.total - result.timing.io
    return cpu + result.sum_depths * io_latency


# ----------------------------------------------------------------------
# Figure 2 — the motivating study: HRJN* vs PBRJ_FR^RR
# ----------------------------------------------------------------------
def figure_02(
    config: FigureConfig | None = None,
    *,
    e: int = 2,
    c: float = 0.5,
    k: int = 10,
) -> ExperimentTable:
    """Depths and time breakdown (Figure 2).

    Paper point: e=3, c=.75, K=100 on TPC-H SF 1.  At our reduced scale
    that point is order-bound-dominated (every operator digs to the same
    depth, and K=100 nearly exhausts the small Orders input), so the
    defaults shift to e=2, c=.5, K=10 where the same two phenomena —
    PBRJ_FR^RR saves I/O but loses wall-clock to bound computation — are
    visible.  Pass ``e=3, c=0.75, k=100`` for the literal paper point.
    """
    config = config or FigureConfig()
    params = WorkloadParams(e=e, c=c, z=0.5, k=k, scale=config.scale, seed=config.seed)
    operators = config.comparison_operators(["HRJN*", "PBRJ_FR^RR"])
    results = averaged_runs(
        params,
        operators,
        num_seeds=config.num_seeds,
        operator_budgets=config.budgets(),
    )
    table = ExperimentTable(
        title=f"Figure 2: {' vs '.join(operators)} (e={e}, c={c}, K={k})",
        headers=[
            "operator", "left_depth", "right_depth", "sumDepths",
            "io_time", "bound_time", "other_time", "total_time", "model_time",
        ],
    )
    for name, res in results.items():
        timing = res.timing
        table.add_row(
            name, res.depths.left, res.depths.right, _depth(res),
            timing.io, timing.bound, timing.other, _time(res),
            _model_time(res, config.io_latency),
        )
    table.notes.append(
        "expected shape: PBRJ_FR^RR wins sumDepths but loses total time "
        "(bound_time dominates its runtime)"
    )
    return table


# ----------------------------------------------------------------------
# Figures 10 & 11 — a-FRPA parameter sensitivity
# ----------------------------------------------------------------------
def figure_10(
    config: FigureConfig | None = None,
    max_cr_sizes: tuple[int, ...] = (8, 16, 32, 64, 128, 512),
    resolution: int = 64,
) -> ExperimentTable:
    """a-FRPA vs maxCRSize at fixed L0 (Figure 10).

    Paper point: e=3, thresholds 100..2000.  Our reduced-scale covers are
    ~100 points (e=2, c=.25 stresses the cover most while keeping depth
    cover-bound-driven), so the sweep covers thresholds around that size;
    the tradeoff — depth falls and bound time rises with the threshold,
    converging to FRPA — is the reproduced shape.
    """
    config = config or FigureConfig()
    params = WorkloadParams(
        e=2, c=0.25, z=0.5, k=10, scale=config.scale, seed=config.seed
    )
    table = ExperimentTable(
        title=f"Figure 10: a-FRPA vs maxCRSize (L0={resolution}, e=2, c=.25)",
        headers=["maxCRSize", "sumDepths", "bound_time", "total_time", "model_time"],
    )
    for size in max_cr_sizes:
        results = averaged_runs(
            params,
            ["a-FRPA"],
            num_seeds=config.num_seeds,
            operator_kwargs={
                "a-FRPA": {"max_cr_size": size, "resolution": resolution}
            },
        )
        res = results["a-FRPA"]
        table.add_row(
            size, _depth(res), res.timing.bound, _time(res),
            _model_time(res, config.io_latency),
        )
    frpa = averaged_runs(
        params, ["FRPA"], num_seeds=config.num_seeds,
        operator_budgets=config.budgets(),
    )["FRPA"]
    table.add_row(
        "FRPA", _depth(frpa), frpa.timing.bound, _time(frpa),
        _model_time(frpa, config.io_latency),
    )
    table.notes.append(
        "expected shape: depth decreases / bound time increases with "
        "maxCRSize; large thresholds reach FRPA's instance-optimal depth"
    )
    return table


def figure_11(
    config: FigureConfig | None = None,
    resolutions: tuple[int, ...] = (8, 16, 32, 64, 128),
    max_cr_size: int = 8,
) -> ExperimentTable:
    """a-FRPA vs initial resolution L0 at fixed maxCRSize (Figure 11).

    The threshold is set low enough to force grid mode so L0 matters.
    """
    config = config or FigureConfig()
    params = WorkloadParams(
        e=2, c=0.25, z=0.5, k=10, scale=config.scale, seed=config.seed
    )
    table = ExperimentTable(
        title=f"Figure 11: a-FRPA vs L0 (maxCRSize={max_cr_size}, e=2, c=.25)",
        headers=["L0", "sumDepths", "bound_time", "total_time", "model_time"],
    )
    for resolution in resolutions:
        results = averaged_runs(
            params,
            ["a-FRPA"],
            num_seeds=config.num_seeds,
            operator_kwargs={
                "a-FRPA": {"max_cr_size": max_cr_size, "resolution": resolution}
            },
        )
        res = results["a-FRPA"]
        table.add_row(
            resolution, _depth(res), res.timing.bound, _time(res),
            _model_time(res, config.io_latency),
        )
    table.notes.append(
        "expected shape: sumDepths roughly insensitive to L0; higher L0 "
        "costs somewhat more adaptation time"
    )
    return table


# ----------------------------------------------------------------------
# Figures 12-14 — comparative sweeps over c, e, K
# ----------------------------------------------------------------------
def _sweep(
    title: str,
    sweep_name: str,
    values: tuple,
    params_for,
    config: FigureConfig,
    operators: list[str] | None = None,
) -> ExperimentTable:
    operators = operators or ALL_OPERATORS
    headers = [sweep_name]
    for name in operators:
        headers += [f"{name}:sumDepths", f"{name}:time", f"{name}:model_time"]
    table = ExperimentTable(title=title, headers=headers)
    for value in values:
        results = averaged_runs(
            params_for(value),
            operators,
            num_seeds=config.num_seeds,
            operator_budgets=config.budgets(),
        )
        row = [value]
        for name in operators:
            res = results[name]
            row += [_depth(res), _time(res), _model_time(res, config.io_latency)]
        table.add_row(*row)
    return table


def figure_12(
    config: FigureConfig | None = None,
    cuts: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
) -> ExperimentTable:
    """Effect of score cut c (Figure 12); K=10, z=.5, e=2."""
    config = config or FigureConfig()
    table = _sweep(
        "Figure 12: effect of score cut c (K=10, z=.5, e=2)",
        "c",
        cuts,
        lambda c: WorkloadParams(e=2, c=c, scale=config.scale, seed=config.seed),
        config,
        operators=config.comparison_operators(ALL_OPERATORS),
    )
    table.notes.append(
        "expected shape: gap vs HRJN* grows as c shrinks (several-fold by "
        "c=.25); FRPA/a-FRPA <= PBRJ_FR^RR <= HRJN* in depths; near-parity "
        "at c=1"
    )
    return table


def figure_13(
    config: FigureConfig | None = None,
    es: tuple[int, ...] = (1, 2, 3, 4),
) -> ExperimentTable:
    """Effect of score attributes e (Figure 13); K=10, c=.5, z=.5.

    At e=4 PBRJ_FR^RR blows its time budget and is reported as omitted,
    as the paper reports ">10 hours"; FRPA's exact covers finish but cost
    an order of magnitude more than a-FRPA's bounded ones, which complete
    with HRJN*-like depth.
    """
    config = config or FigureConfig(scale=0.002, num_seeds=1)
    table = _sweep(
        "Figure 13: effect of score attributes e (K=10, c=.5, z=.5)",
        "e",
        es,
        lambda e: WorkloadParams(e=e, scale=config.scale, seed=config.seed),
        config,
        operators=config.comparison_operators(ALL_OPERATORS),
    )
    table.notes.append(
        "expected shape: feasible-region operators win hugely at e=1 "
        "(order of magnitude), less as e grows; at e=4 exact covers "
        "explode (PBRJ_FR^RR capped, shown as —; FRPA an order of magnitude "
        "slower) while a-FRPA stays bounded and matches HRJN*'s depth"
    )
    return table


def figure_14(
    config: FigureConfig | None = None,
    ks: tuple[int, ...] = (1, 10, 100, 1000),
) -> ExperimentTable:
    """Effect of result count K (Figure 14); z=.5, e=2, c=.5."""
    config = config or FigureConfig()
    table = _sweep(
        "Figure 14: effect of K (z=.5, e=2, c=.5)",
        "K",
        ks,
        lambda k: WorkloadParams(k=k, scale=config.scale, seed=config.seed),
        config,
        operators=config.comparison_operators(ALL_OPERATORS),
    )
    table.notes.append(
        "expected shape: FRPA/a-FRPA dominate depths across K; gaps narrow "
        "as K approaches input exhaustion"
    )
    return table


def skew_sweep(
    config: FigureConfig | None = None,
    zs: tuple[float, ...] = (0.0, 0.5, 1.0),
) -> ExperimentTable:
    """Effect of score skew z (Section 6.2.2, results stated qualitatively)."""
    config = config or FigureConfig()
    table = _sweep(
        "Skew sweep: effect of z (K=10, e=2, c=.5)",
        "z",
        zs,
        lambda z: WorkloadParams(z=z, scale=config.scale, seed=config.seed),
        config,
        operators=config.comparison_operators(ALL_OPERATORS),
    )
    table.notes.append("paper: qualitatively identical trends across z")
    return table


# ----------------------------------------------------------------------
# Figure 15 — pipelined plans
# ----------------------------------------------------------------------
PIPELINE_QUERIES: dict[str, tuple[list[tuple[str, str]], list[str]]] = {
    # query name -> ([(table, key_column), ...], [rekey attrs])
    "L⋈O": ([("lineitem", "orderkey"), ("orders", "orderkey")], []),
    "L⋈O⋈C": (
        [("lineitem", "orderkey"), ("orders", "orderkey"), ("customer", "custkey")],
        ["custkey"],
    ),
    "L⋈O⋈C⋈P": (
        [
            ("lineitem", "orderkey"),
            ("orders", "orderkey"),
            ("customer", "custkey"),
            ("part", "partkey"),
        ],
        ["custkey", "partkey"],
    ),
}


def run_pipeline_query(
    query: str,
    operator: str,
    params: WorkloadParams,
) -> Pipeline:
    """Build and run one pipelined plan to its K-th result."""
    specs, rekeys = PIPELINE_QUERIES[query]
    tables = pipeline_tables(params)
    relations = [tables[name].to_relation(key) for name, key in specs]
    pipeline = Pipeline(relations, rekeys, operator=operator)
    pipeline.top_k(params.k)
    return pipeline


def figure_15(
    config: FigureConfig | None = None,
    operators: tuple[str, ...] = ("HRJN*", "a-FRPA"),
    queries: tuple[str, ...] = ("L⋈O", "L⋈O⋈C", "L⋈O⋈C⋈P"),
) -> ExperimentTable:
    """Pipelined plans (Figure 15); e=1, z=.5, c=.5, K=10."""
    config = config or FigureConfig(scale=0.002)
    headers = ["query"]
    for name in operators:
        headers += [f"{name}:sumDepths", f"{name}:time", f"{name}:model_time"]
    table = ExperimentTable(
        title="Figure 15: pipelined plans (e=1, z=.5, c=.5, K=10)",
        headers=headers,
    )
    for query in queries:
        row: list = [query]
        for name in operators:
            depth_sum = 0
            time_sum = 0.0
            io_sum = 0.0
            for offset in range(config.num_seeds):
                params = WorkloadParams(
                    e=1, c=0.5, z=0.5, k=10,
                    scale=config.scale, seed=config.seed + offset,
                )
                pipeline = run_pipeline_query(query, name, params)
                depth_sum += pipeline.sum_depths
                timing = pipeline.timing()
                time_sum += timing.total
                io_sum += timing.io
            depths = depth_sum / config.num_seeds
            total = time_sum / config.num_seeds
            io = io_sum / config.num_seeds
            row += [round(depths), total, (total - io) + depths * config.io_latency]
        table.add_row(*row)
    table.notes.append(
        "expected shape: a-FRPA beats HRJN* in depths and modeled time, "
        "with the gap growing with pipeline depth"
    )
    return table


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def ablation_cover(
    config: FigureConfig | None = None,
    max_cr_size: int = 64,
) -> ExperimentTable:
    """Adaptive vs frozen vs fixed-grid covers (the §5.1.1 design argument).

    Run on an anti-correlated instance — the regime where covers keep
    evolving, so a frozen cover goes stale and a fixed coarse grid wastes
    precision early.  (On the TPC-H workload at our scale all three tie:
    covers there stop growing early.)
    """
    config = config or FigureConfig()
    from repro.core.operators import make_operator
    from repro.data.workload import anti_correlated_instance

    table = ExperimentTable(
        title=f"Ablation: cover strategies (maxCRSize={max_cr_size}, "
        "anti-correlated scores, K=20)",
        headers=["strategy", "sumDepths", "bound_time", "total_time", "model_time"],
    )
    n = max(int(1_500_000 * config.scale), 1000)
    for strategy in ("adaptive", "frozen", "fixed-grid"):
        depths = 0
        bound = 0.0
        total = 0.0
        io = 0.0
        for offset in range(config.num_seeds):
            instance = anti_correlated_instance(
                n_left=n, n_right=n, num_keys=max(n // 100, 5), k=20,
                seed=config.seed + offset,
            )
            operator = make_operator(
                "a-FRPA",
                instance,
                max_cr_size=max_cr_size,
                cover_strategy=strategy,
            )
            operator.top_k(20)
            stats = operator.stats()
            depths += stats.sum_depths
            bound += stats.timing.bound
            total += stats.timing.total
            io += stats.timing.io
        depths = round(depths / config.num_seeds)
        bound /= config.num_seeds
        total /= config.num_seeds
        io /= config.num_seeds
        table.add_row(
            strategy, depths, bound, total,
            (total - io) + depths * config.io_latency,
        )
    table.notes.append(
        "paper: the adaptive cover beat both naive variants (frozen covers "
        "go stale; fixed grids are needlessly coarse early on)"
    )
    return table


def ablation_pulling(
    config: FigureConfig | None = None,
) -> ExperimentTable:
    """PA vs round-robin pulling with the same FR* bound (isolates PA)."""
    config = config or FigureConfig()
    params = WorkloadParams(
        e=2, c=0.5, z=0.5, k=10, scale=config.scale, seed=config.seed
    )
    results = averaged_runs(
        params,
        ["FRPA", "FRPA_RR"],
        num_seeds=config.num_seeds,
        operator_budgets=config.budgets(),
    )
    table = ExperimentTable(
        title="Ablation: PA vs RR pulling under the FR* bound (e=2, c=.5, K=10)",
        headers=["operator", "left_depth", "right_depth", "sumDepths", "total_time"],
    )
    for name, res in results.items():
        table.add_row(
            name, res.depths.left, res.depths.right, _depth(res), _time(res)
        )
    table.notes.append(
        "expected shape: identical left depths (Theorem 4.2 machinery); PA "
        "saves the round-robin over-pulls on the right input"
    )
    return table

