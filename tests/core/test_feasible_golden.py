"""Golden FRPA / FRPA_RR / a-FRPA runs: the FR* family, call by call.

For every ``(instance, operator, step budget)`` key, the operator is driven
by ``try_next(max_pulls=budget)`` until it holds the instance's K results
or returns ``None``, and every call leaves one line:

* the outcome — ``PENDING``, ``None``, or the result's content identity
  and ``score.hex()``;
* ``pulls``, ``depth(0)``, ``depth(1)``, ``bound_value``, both potentials,
  ``frontier()`` and ``best_buffered()``;
* the bound's ``cover_sizes`` and ``cover_resolutions`` (``-`` for FR*,
  which has no grid), ``stats().bound_recomputations`` — Table 1's count —
  and the inputs' simulated I/O cost;
* the :class:`~repro.stats.trace.BoundTrace` rows the call appended;
* the registry's pull, recomputation and grid counters and gauges, and
  the kernel call counts (``kernel_calls_total``: the carves the group
  closes made).

The golden keeps the line count, the last line and a digest of them all.
``feasible_golden.json`` was recorded from the last commit whose FR*
operators were the per-pull PBRJ loop, before they became a walk over
per-side bound columns, and re-recorded with the kernel call counts from
the walk's last commit before its seen-skyline insert and group-close
carve became the step the loop shares — every other part of every line
came back unchanged.  It was re-recorded once more from the last commit
that still wrote the ``skyline_size`` histograms, with that family dropped
from ``FAMILIES``: only its entries left the lines.  It was re-recorded
again from the last commit that still wrote ``pull_choice_total``,
``bound_cache_total`` and ``cover_size``, with those three dropped from
``FAMILIES`` in the same way, and from the last commit that still had
``memory()``, with its output-heap peak dropped from each line: every
line's other fields came back unchanged.  The instances are the
bound-trace golden's e=2 / e=3 ones and its tie-heavy ``ties_e2``, one
with an empty input and one whose K exceeds the join.  The 112 keys whose
runs released a result while ``t`` was within ``SCORE_EPS`` of its score
were re-recorded when the release rule became strict (it holds such a
result until nothing unseen can tie it, and leaves an exact tie in
``result_identity`` order); the other 80 came back unchanged.

Re-record only from a commit whose FR* operators you trust::

    PYTHONPATH=<that>/src:. python tests/core/test_feasible_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import kernels
from repro.core.operators import make_operator
from repro.core.pbrj import result_identity
from repro.core.stepping import PENDING
from repro.obs import Observability
from repro.stats.trace import BoundTrace

from test_bound_golden import INSTANCES as BOUND_INSTANCES  # same directory
from test_bound_trace_golden import HARNESS_INSTANCES
from test_corner_golden import _empty_side, _k_past_join

GOLDEN_PATH = Path(__file__).with_name("feasible_golden.json")

INSTANCES = {
    **BOUND_INSTANCES,
    "ties_e2": HARNESS_INSTANCES["ties_e2"],
    "empty_side": _empty_side,
    "k_past_join": _k_past_join,
}

#: label -> (operator, options).
OPERATORS = {
    "FRPA": ("FRPA", {}),
    "FRPA_RR": ("FRPA_RR", {}),
    "a-FRPA": ("a-FRPA", {}),
    **{f"a-FRPA/{size}": ("a-FRPA", {"max_cr_size": size}) for size in (4, 16, 70)},
}
BUDGETS = (None, 1, 7, 64)
KEYS = [f"{instance} {operator} budget={budget}"
        for instance in INSTANCES for operator in OPERATORS for budget in BUDGETS]

#: Registry families the FR* operators write, read after every call.
FAMILIES = (
    "pulls_total", "bound_recompute_total", "gridtree_resolution",
    "gridtree_resolution_drops_total",
    "cover_grid_transfers_total", "kernel_calls_total",
)


def _hex(value) -> str:
    return float(value).hex()


def _registry(metrics) -> str:
    shown = []
    for (_, family, labels), metric in list(metrics._metrics.items()):
        if family in FAMILIES:
            shown.append(f"{family}{sorted(dict(labels).items())}={metric.value!r}")
    return ",".join(sorted(shown))


def calls(key):
    """One line per ``try_next`` call, in call order."""
    instance_name, label, budget = key.split()
    budget = None if budget == "budget=None" else int(budget.split("=")[1])
    instance = INSTANCES[instance_name]()
    operator_name, options = OPERATORS[label]
    obs, trace = Observability(), BoundTrace()
    try:
        operator = make_operator(operator_name, instance, obs=obs, trace=trace, **options)
        bound = operator.bound_scheme
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
                    operator.bound_value, operator.potential(0), operator.potential(1),
                    operator.frontier(), operator.best_buffered())),
                f"{bound.cover_sizes} {getattr(bound, 'cover_resolutions', '-')} "
                f"{operator.stats().bound_recomputations}",
                f"{operator.stats().io_cost!r}",
                ";".join(f"{e.pull} {e.side} {_hex(e.bound)} {e.buffered} {e.emitted}"
                         for e in appended),
                _registry(obs.metrics),
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
def test_feasible_operator_matches_golden(golden, key):
    assert summary(key) == golden[key]


def test_every_key_is_recorded(golden):
    assert sorted(golden) == sorted(KEYS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {key: summary(key) for key in KEYS}, indent=1) + "\n")
    print(f"recorded {len(KEYS)} FR* runs -> {GOLDEN_PATH}")
