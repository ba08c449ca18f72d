"""Shared fixtures for the figure benchmarks.

Every benchmark regenerates one of the paper's evaluation figures via
:mod:`repro.experiments.figures`, prints the series, saves it under
``benchmarks/results/``, and asserts the figure's *shape* (who wins, where
the crossovers are) — absolute numbers are substrate-dependent.

Environment knobs for bigger runs:

* ``REPRO_BENCH_SCALE`` — data scale factor (default: per-figure).
* ``REPRO_BENCH_SEEDS`` — seeds averaged per configuration.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import pytest

from repro.experiments.figures import FigureConfig
from repro.experiments.report import ExperimentTable

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def figure_config() -> FigureConfig | None:
    """A FigureConfig built from environment overrides, or None (defaults)."""
    kwargs = {}
    if "REPRO_BENCH_SCALE" in os.environ:
        kwargs["scale"] = float(os.environ["REPRO_BENCH_SCALE"])
    if "REPRO_BENCH_SEEDS" in os.environ:
        kwargs["num_seeds"] = int(os.environ["REPRO_BENCH_SEEDS"])
    return FigureConfig(**kwargs) if kwargs else None


@pytest.fixture
def save_table():
    """Print a figure table and persist it under benchmarks/results/."""

    def _save(name: str, table: ExperimentTable) -> None:
        rendered = table.render()
        print()
        print(rendered)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")

    return _save


def not_nan(value) -> bool:
    return not (isinstance(value, float) and math.isnan(value))
