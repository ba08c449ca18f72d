"""Ablation: how much of the FR bound's cost is the cross product?

The paper attributes FR's overhead to the combinatorial cover-bound cross
products.  For *additive* scoring functions the cross-product maximum is
separable (``max Σ = max_left + max_right``), which removes that cost
entirely but is not available to a general monotone implementation — the
setting the paper (and this reproduction) targets.  This benchmark
measures the cross product's share directly by monkey-patching SumScore's
prepared maximum with its separable shortcut.

Reproduced shape: the separable shortcut removes the bulk of PBRJ_FR^RR's
bound time, confirming the paper's diagnosis of where the time goes.
"""


from repro.core.scoring import SumScore
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.experiments.harness import run_operator
from repro.experiments.report import ExperimentTable

PARAMS = WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.004, seed=0)


class SeparableSumScore(SumScore):
    """SumScore with the O(n + m) separable cross-product maximum."""

    def max_prepared(self, left, right):
        # What FR* asks for (cover_max): the sum of the operands' maxima.
        return self.cover_max(left, right)


def run_comparison() -> ExperimentTable:
    table = ExperimentTable(
        title="Ablation: cross-product vs separable cover bounds "
        "(PBRJ_FR^RR, e=2, c=.5, K=10)",
        headers=["variant", "sumDepths", "bound_time", "total_time"],
    )
    for label, scoring in (
        ("cross-product (general)", SumScore()),
        ("separable (additive-only)", SeparableSumScore()),
    ):
        instance = lineitem_orders_instance(PARAMS, scoring=scoring)
        result = run_operator("PBRJ_FR^RR", instance)
        table.add_row(
            label, result.sum_depths, result.stats.timing.bound,
            result.stats.timing.total,
        )
    table.notes.append(
        "identical depths (the maxima are equal); the time difference is "
        "purely the cross-product work"
    )
    return table


def test_separable_ablation(benchmark, save_table):
    table = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    save_table("ablation_separable", table)

    rows = {row[0]: row for row in table.rows}
    headers = table.headers
    general = rows["cross-product (general)"]
    separable = rows["separable (additive-only)"]
    # Identical I/O: the bound values are mathematically equal.
    assert general[headers.index("sumDepths")] == separable[
        headers.index("sumDepths")
    ]
    # The cross product is a large share of the general bound time.
    assert separable[headers.index("bound_time")] < general[
        headers.index("bound_time")
    ]