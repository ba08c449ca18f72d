"""Golden HRJN / HRJN* runs: the corner-bound operators, call by call.

For every ``(instance, operator, step budget)`` key, the operator is driven
by ``try_next(max_pulls=budget)`` until it holds the instance's K results
or returns ``None``, and every call leaves one line:

* the outcome — ``PENDING``, ``None``, or the result's content identity
  and ``score.hex()``;
* ``pulls``, ``depth(0)``, ``depth(1)``, ``bound_value``, ``frontier()``,
  both potentials and the inputs' simulated I/O cost;
* the :class:`~repro.stats.trace.BoundTrace` rows the call appended.

The golden keeps the line count, the last line and a digest of them all.
``corner_golden.json`` was recorded from the last commit whose HRJN and
HRJN* were the per-pull PBRJ loop (corner bound + round-robin /
potential-adaptive pulling), before they became array passes, and
re-recorded from the last commit that still wrote ``pull_choice_total``,
with the column of those counts dropped: every other part of every line
came back unchanged.  It was re-recorded once more, the same way, from
the last commit that still had ``memory()``, with its output-heap peak
dropped.  The
instances are the bound-trace golden's e=2 / e=3 ones, a 0.25-grid
instance made of exact-score ties, one with an empty input and one whose
K exceeds the join.

Re-record only from a commit whose corner operators you trust::

    PYTHONPATH=<that>/src:. python tests/core/test_corner_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.core.operators import make_operator
from repro.core.pbrj import result_identity
from repro.core.scoring import SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.obs import Observability
from repro.relation.relation import RankJoinInstance, Relation
from repro.stats.trace import BoundTrace

from test_bound_golden import INSTANCES as BOUND_INSTANCES  # same directory

GOLDEN_PATH = Path(__file__).with_name("corner_golden.json")


def _grid_ties():
    rng = np.random.default_rng(31)

    def side(name, n):
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n, 2))
        return Relation.from_arrays(name, rng.integers(0, 6, size=n).tolist(), scores)

    return RankJoinInstance(
        side("T1", 60), side("T2", 50), WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6]), 15)


def _empty_side():
    empty = Relation("none", [])
    empty.dimension = 2
    right = Relation("R", [RankTuple(i % 3, (0.1 * i % 1.0, 0.5)) for i in range(20)])
    return RankJoinInstance(empty, right, SumScore(), 3)


def _k_past_join():
    rng = np.random.default_rng(7)

    def side(name, n):
        return Relation.from_arrays(
            name, rng.integers(0, 4, size=n).tolist(), rng.random((n, 2)))

    instance = RankJoinInstance(side("A", 9), side("B", 7), SumScore(), 1)
    instance.k = instance.join_size() + 5
    return instance


INSTANCES = {
    **{name: BOUND_INSTANCES[name]
       for name in ("uniform_e2", "tpch_e2", "tpch_e3", "anticorrelated_e2")},
    "grid_ties": _grid_ties,
    "empty_side": _empty_side,
    "k_past_join": _k_past_join,
}

OPERATORS = ("HRJN", "HRJN*")
BUDGETS = (None, 1, 7, 64)
KEYS = [f"{instance} {operator} budget={budget}"
        for instance in INSTANCES for operator in OPERATORS for budget in BUDGETS]


def _hex(value) -> str:
    return float(value).hex()


def calls(key):
    """One line per ``try_next`` call, in call order."""
    instance_name, operator_name, budget = key.split()
    budget = None if budget == "budget=None" else int(budget.split("=")[1])
    instance = INSTANCES[instance_name]()
    obs, trace = Observability(), BoundTrace()
    try:
        operator = make_operator(operator_name, instance, obs=obs, trace=trace)
        lines, results, rows = [], 0, 0
        while results < instance.k:
            outcome = operator.try_next(max_pulls=budget)
            if outcome is None or outcome is PENDING:
                shown = repr(outcome)
            else:
                shown = f"{result_identity(outcome)!r} {outcome.score.hex()}"
            appended = trace.entries[rows:]
            rows = len(trace.entries)
            lines.append(" | ".join([
                shown,
                f"{operator.pulls} {operator.depth(0)} {operator.depth(1)}",
                " ".join(_hex(value) for value in (
                    operator.bound_value, operator.frontier(),
                    operator.potential(0), operator.potential(1))),
                f"{operator.stats().io_cost!r}",
                ";".join(f"{e.pull} {e.side} {_hex(e.bound)} {e.buffered} {e.emitted}"
                         for e in appended),
            ]))
            if outcome is None:
                break
            if outcome is not PENDING:
                results += 1
        return lines
    finally:
        kernels.unobserve()  # the operator registered the kernel sink


def summary(key):
    lines = calls(key)
    return {
        "calls": len(lines),
        "last": lines[-1],
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_corner_operator_matches_golden(golden, key):
    assert summary(key) == golden[key]


def test_every_key_is_recorded(golden):
    assert sorted(golden) == sorted(KEYS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {key: summary(key) for key in KEYS}, indent=1) + "\n")
    print(f"recorded {len(KEYS)} corner runs -> {GOLDEN_PATH}")
