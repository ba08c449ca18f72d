"""Golden bound traces: the FR-family bounds are bit-identical to the parent.

``test_bound_golden`` pins depths and recomputation counts, which only
catches a changed *stopping decision*.  This pins the bound itself: for
every ``(instance, operator, budget)`` key of that golden, a digest of the
per-pull sequence ``(side, float.hex(bound), float.hex(pot_left),
float.hex(pot_right), cover_sizes)`` — so a bound, a potential or a cover
size that moved in the last ulp fails here even when it happened not to
move a depth.  ``bound_trace_golden.json`` was recorded from the commit
*before* covers and seen skylines became list-native scored antichains
(columnar ``PointSet`` storage patched through stamps), and every case runs
under all three kernel selections.

Re-record only from a commit whose bounds you trust::

    PYTHONPATH=<that>/src python tests/core/test_bound_trace_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.operators import make_operator
from repro.core.stepping import PENDING
from repro.kernels import use_backend

from test_bound_golden import GOLDEN, INSTANCES  # same directory, no package

GOLDEN_PATH = Path(__file__).with_name("bound_trace_golden.json")

KEYS = sorted(GOLDEN, key=str)
KERNELS = ("auto", "python", "numpy")


def trace(key):
    """One line per pull, in pull order, up to the instance's top-K."""
    instance_name, operator_name, budget = key
    instance = INSTANCES[instance_name]()
    kwargs = {} if budget is None else {"max_cr_size": budget}
    operator = make_operator(operator_name, instance, **kwargs)
    bound = operator.bound_scheme
    depths, lines, results = [0, 0], [], 0
    while results < instance.k:
        outcome = operator.try_next(max_pulls=1)
        for side in (0, 1):
            if operator.depth(side) > depths[side]:
                depths[side] = operator.depth(side)
                lines.append("{} {} {} {} {}".format(
                    side,
                    float(operator.bound_value).hex(),
                    float(operator.potential(0)).hex(),
                    float(operator.potential(1)).hex(),
                    ",".join(str(size) for size in bound.cover_sizes),
                ))
        if outcome is None:
            break
        if outcome is not PENDING:
            results += 1
    return lines


def summary(key):
    lines = trace(key)
    return {
        "pulls": len(lines),
        "last": lines[-1],
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("key", KEYS, ids=str)
def test_per_pull_trace_matches_parent(golden, key, kernel):
    with use_backend(kernel):
        assert summary(key) == golden[str(key)]


def test_every_depth_golden_key_has_a_trace(golden):
    assert sorted(golden) == sorted(str(key) for key in KEYS)
    for key in KEYS:
        assert golden[str(key)]["pulls"] == sum(GOLDEN[key][:2])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({str(key): summary(key) for key in KEYS}, indent=1) + "\n"
    )
    print(f"recorded {len(KEYS)} traces -> {GOLDEN_PATH}")
