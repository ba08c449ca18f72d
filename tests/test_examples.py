"""Smoke tests: the fast example scripts run end-to-end and print sanely.

``reproduce_paper.py`` is a call to ``python -m repro figures --check``,
whose experiments and claims tier-1 runs small in
``tests/experiments/test_figures.py``; ``bound_evolution.py`` is
experiment-scale and not run here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Script -> markers its output must contain; new scripts go last, so the
#: parametrized ids (``<script>-markers<index>``) of the others hold.
FAST_EXAMPLES = {
    "middleware_aggregation.py": ["sorted accesses", "restaurant-"],
    "quickstart.py": ["sumDepths", "naive reads all"],
    "robustness.py": ["FRPA", "naive join would read"],
    "plan_advisor.py": ["estimated depths", "est cost", "3-way chain"],
    "travel_ranking.py": ["tuples read per input", "the same top-5 scores"],
}


@pytest.mark.parametrize("script,markers", FAST_EXAMPLES.items())
def test_example_runs(script, markers):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for marker in markers:
        assert marker in completed.stdout


def test_all_examples_present_and_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 8
    for path in EXAMPLES.glob("*.py"):
        head = path.read_text().split("\n", 3)
        assert head[1].startswith('"""'), f"{path.name} lacks a docstring"
