"""The registered experiments at miniature scale, shape claims included.

Every entry of ``repro.experiments.EXPERIMENTS`` runs end to end at one
small fixed config, and every shape claim that is deterministic there —
not flagged ``time`` (reads a wall-clock column) or ``committed`` (needs the
registry config's scale) — is asserted.  The full set, time claims
included, at the registry configs is ``python -m repro figures --check``
(a CI step).
"""

import math
from pathlib import Path

import pytest

from repro.data.workload import WorkloadParams
from repro.experiments import EXPERIMENTS, FigureConfig
from repro.experiments.figures import figure_02, figure_13, run_pipeline_query

QUICK = FigureConfig(scale=0.0005, num_seeds=1)
#: Sweeps cut short where the full one would dominate tier-1's wall time
#: (PBRJ_FR^RR at e=3 alone takes 3 s, K=100 exhausts the 750-row Orders).
QUICK_SWEEPS = {
    "13": {"es": (1, 2)},
    "14": {"ks": (1, 10, 50)},
    "ext-scaling": {"scales": (0.0005, 0.001, 0.002)},
}


def _claims_test(name):
    def test(self):
        experiment = EXPERIMENTS[name]
        table = experiment.run(QUICK, **QUICK_SWEEPS.get(name, {}))
        assert table.rows
        assert all(len(row) == len(table.headers) for row in table.rows)
        failed = [
            claim.name for claim in experiment.expectations
            if not (claim.time or claim.committed) and not claim.holds(table)
        ]
        assert not failed, table.render()
    return test


class TestFigureSmoke:
    """One generated test per registry entry, named ``test_<out_stem>``
    (the ids the hand-written per-figure smoke tests had)."""

    def test_figure_13_caps_e4(self):
        config = FigureConfig(scale=0.0003, num_seeds=1, exact_budget_s=0.0)
        table = figure_13(config, es=(1, 4))
        by_e = {row[0]: row for row in table.rows}
        index = table.headers.index("PBRJ_FR^RR:sumDepths")
        assert math.isnan(by_e[4][index])  # capped with a zero budget
        assert math.isnan(by_e[1][index])  # zero budget caps everything


for _name, _experiment in EXPERIMENTS.items():
    setattr(TestFigureSmoke, f"test_{_experiment.out_stem}", _claims_test(_name))


def test_out_stems_are_the_committed_tables():
    results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    assert sorted(p.stem for p in results.glob("*.txt")) == sorted(
        experiment.out_stem for experiment in EXPERIMENTS.values()
    )


class TestPipelineQueryRunner:
    def test_three_way_runs(self):
        params = WorkloadParams(e=1, c=0.5, z=0.5, k=2, scale=0.0003, seed=0)
        pipeline = run_pipeline_query("L⋈O⋈C", "a-FRPA", params)
        assert pipeline.sum_depths > 0
        assert len(pipeline.depths()) == 3

    def test_unknown_query_rejected(self):
        params = WorkloadParams(scale=0.0003)
        with pytest.raises(KeyError):
            run_pipeline_query("nope", "a-FRPA", params)


class TestModelTime:
    def test_model_time_uses_latency(self):
        fast = figure_02(FigureConfig(scale=0.0003, num_seeds=1, io_latency=0.0))
        slow = figure_02(FigureConfig(scale=0.0003, num_seeds=1, io_latency=1.0))
        fast_mt = fast.rows[0][fast.headers.index("model_time")]
        slow_mt = slow.rows[0][slow.headers.index("model_time")]
        assert slow_mt > fast_mt
