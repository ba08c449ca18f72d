"""Extension benchmark: multiway rank join vs pipelined binary plans.

The paper's Section 2.1 notes (citing Schnaitter & Polyzotis) that
multiway operators can be instance-optimal where plans of binary operators
are not: a binary pipeline must *order* its intermediate stream, and the
order bound on an intermediate tuple substitutes 1 for all attributes yet
to come — which forces the pipeline to drain most of the (L⋈O) stream
(see the Figure 15 analysis in EXPERIMENTS.md).  A multiway operator with
the n-ary feasible-region bound certifies complete results directly and
escapes that tax.

Reproduced shape (L⋈O⋈C, e=1, c=.5, K=10): the multiway feasible-region
operator reads several times fewer base tuples than every binary pipeline
and than the corner-bound multiway variant; all plans agree on the answer.
"""

from repro.core.bounds import CornerBound
from repro.core.multiway import multiway_rank_join
from repro.core.multiway_fr import MultiwayFeasibleBound
from repro.core.scoring import SumScore
from repro.data.workload import WorkloadParams, pipeline_tables
from repro.experiments.figures import PIPELINE_QUERIES
from repro.experiments.report import ExperimentTable
from repro.plan.pipeline import Pipeline

PARAMS = WorkloadParams(e=1, c=0.5, z=0.5, k=10, scale=0.002, seed=0)


def run_comparison() -> tuple[ExperimentTable, dict]:
    tables = pipeline_tables(PARAMS)
    specs, rekeys = PIPELINE_QUERIES["L⋈O⋈C"]
    relations = [tables[name].to_relation(key) for name, key in specs]

    table = ExperimentTable(
        title="Extension: multiway vs binary pipelines on L⋈O⋈C "
        "(e=1, c=.5, K=10)",
        headers=["plan", "sumDepths", "total_time"],
    )
    scores: dict[str, list[float]] = {}

    for label, bound in (
        ("multiway FR (n-ary feasible bound)", MultiwayFeasibleBound()),
        ("multiway corner", CornerBound()),
    ):
        operator = multiway_rank_join(
            relations, ["orderkey", "custkey"], SumScore(), bound=bound
        )
        scores[label] = [r.score for r in operator.top_k(PARAMS.k)]
        table.add_row(label, operator.sum_depths, operator.timing().total)

    for operator_name in ("a-FRPA", "HRJN*"):
        pipeline = Pipeline(relations, rekeys, operator=operator_name)
        label = f"binary pipeline ({operator_name})"
        scores[label] = [r.score for r in pipeline.top_k(PARAMS.k)]
        table.add_row(label, pipeline.sum_depths, pipeline.timing().total)

    table.notes.append(
        "the n-ary feasible bound avoids the binary pipelines' intermediate "
        "ordering tax — the theoretical multiway advantage, measured"
    )
    return table, scores


def test_multiway_vs_pipeline(benchmark, save_table):
    table, scores = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    save_table("extension_multiway", table)

    # All four plans agree on the answer.
    values = list(scores.values())
    for other in values[1:]:
        assert other == values[0]

    depth = {row[0]: row[1] for row in table.rows}
    mw_fr = depth["multiway FR (n-ary feasible bound)"]
    # The n-ary feasible bound beats every alternative, decisively.
    assert mw_fr * 3 < depth["binary pipeline (a-FRPA)"]
    assert mw_fr * 3 < depth["binary pipeline (HRJN*)"]
    assert mw_fr * 3 < depth["multiway corner"]