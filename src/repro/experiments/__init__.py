"""Experiment definitions and harness reproducing the paper's evaluation."""

from repro.experiments.figures import (
    ALL_OPERATORS,
    FIGURE_SCALE,
    FigureConfig,
    PIPELINE_QUERIES,
    run_pipeline_query,
)
from repro.experiments.harness import (
    AveragedResult,
    RunResult,
    averaged_runs,
    run_comparison,
    run_operator,
)
from repro.experiments.registry import EXPERIMENTS, Claim, Experiment
from repro.experiments.report import ExperimentTable

# Every registered experiment's function is exported under its own name.
_RUNNERS = {exp.run.__name__: exp.run for exp in EXPERIMENTS.values()}
globals().update(_RUNNERS)

__all__ = [
    "ALL_OPERATORS",
    "AveragedResult",
    "Claim",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentTable",
    "FIGURE_SCALE",
    "FigureConfig",
    "PIPELINE_QUERIES",
    "RunResult",
    "averaged_runs",
    "run_comparison",
    "run_operator",
    "run_pipeline_query",
]
__all__ += list(_RUNNERS)
