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
under all three kernel routing tables: the shipped one, every call on the
loop, every call on numpy.

The ``GRID`` keys pin the regime those runs only graze: a-FRPA with both
covers (or the wide one) living on the grid for most of the query —
ROADMAP item 1's acceptance rows (TPC-H e=3 / e=4 at scale 0.002: 6 168 /
7 125 pulls, 6 162 / 7 121 before the strict release rule), the same two
``e`` under a 64-point budget, and the routing golden's staircase instance
entering at resolution 1 024 — plus the final
``cover_resolutions``.  They were recorded from the last commit whose grid
mode was the paper's cell formulation (``GridTree`` over integer cells),
before it became the exact carve over rounded observations, and run under
the shipped table only: grid mode has one form.

The ``HARNESS`` keys are the e=2 cases those miss, recorded from the last
commit whose 2-D covers and seen skylines were unordered lists (before
they became sorted staircases): the benchmark harness's own scoring
``WeightedSum([1, 1, 1, 1 + 1e-6])`` on the exact ``cold_fr2`` and
``cold_frwide`` generator settings, and a tie-and-zero-heavy instance whose
scores come from ``{0, .25, .5, .75, 1}`` — so a projection landing on a
neighbour's coordinate, on the carved vector's own, or on zero all occur —
under every FR-family operator.

When the release rule became strict, the 14 keys whose K-th result tied
``t`` within ``SCORE_EPS`` were re-recorded (the trace runs to the later
stop); every other key came back unchanged.

Re-record only from a commit whose bounds you trust::

    PYTHONPATH=<that>/src:. python tests/core/test_bound_trace_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.operators import make_operator
from repro.core.scoring import WeightedSum
from repro.core.stepping import PENDING
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
)
from repro.relation.relation import RankJoinInstance, Relation

from test_bound_golden import GOLDEN, INSTANCES  # same directory, no package
from tests.conftest import KERNEL_TABLES, kernel_table

GOLDEN_PATH = Path(__file__).with_name("bound_trace_golden.json")

KEYS = sorted(GOLDEN, key=str)


def _tpch(e, scale, seed):
    return lambda: lineitem_orders_instance(
        WorkloadParams(e=e, scale=scale, seed=seed))


#: key -> (instance, a-FRPA options, pulls, final cover_resolutions).
GRID = {
    "grid tpch_e3 scale=0.002": (_tpch(3, 0.002, 0), {}, 6168, (64, None)),
    "grid tpch_e4 scale=0.002": (_tpch(4, 0.002, 0), {}, 7125, (8, 16)),
    "grid tpch_e3 scale=0.001 budget=64": (
        _tpch(3, 0.001, 1), {"max_cr_size": 64}, 3769, (8, 8)),
    "grid tpch_e4 scale=0.001 budget=64": (
        _tpch(4, 0.001, 1), {"max_cr_size": 64}, 4000, (4, 4)),
    "grid staircases budget=70 resolution=1024": (
        lambda: anti_correlated_instance(
            n_left=600, n_right=600, num_keys=60, k=10, seed=1),
        {"max_cr_size": 70, "resolution": 1024}, 606, (128, 256)),
}


def _harness_scoring():
    """What every cold query of ``benchmarks/harness`` asks for."""
    return WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6])


def _ties_instance():
    rng = np.random.default_rng(26)

    def side(name):
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(400, 2))
        return Relation.from_arrays(
            name, rng.integers(0, 2000, size=400).tolist(), scores)

    # Few keys match, so the top-20 digs through most of both inputs (651
    # pulls under FRPA) and the covers leave (1, 1) for every shape a
    # 5-value grid allows.
    return RankJoinInstance(side("R1"), side("R2"), _harness_scoring(), 20)


HARNESS_INSTANCES = {
    "cold_fr2": lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0),
        scoring=_harness_scoring()),
    "cold_frwide": lambda: anti_correlated_instance(
        n_left=1000, n_right=1000, num_keys=250, k=10, seed=0,
        scoring=_harness_scoring()),
    "ties_e2": _ties_instance,
}

#: key -> (instance name, operator, options).
HARNESS = {
    f"harness {name} {operator}" + "".join(
        f" {option}={value}" for option, value in kwargs.items()
    ): (name, operator, kwargs)
    for name in HARNESS_INSTANCES
    for operator, kwargs in (
        ("FRPA", {}), ("a-FRPA", {}), ("a-FRPA", {"max_cr_size": 70}),
        ("PBRJ_FR^RR", {}), ("FRPA_RR", {}),
    )
}


def trace(key):
    """One line per pull, in pull order, up to the instance's top-K; and
    the bound that produced them."""
    if key in GRID:
        build, kwargs = GRID[key][:2]
        instance, operator_name = build(), "a-FRPA"
    elif key in HARNESS:
        instance_name, operator_name, kwargs = HARNESS[key]
        instance = HARNESS_INSTANCES[instance_name]()
    else:
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
    return lines, bound


def summary(key):
    lines, bound = trace(key)
    digest = {
        "pulls": len(lines),
        "last": lines[-1],
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }
    if key in GRID:
        digest["resolutions"] = list(bound.cover_resolutions)
    return digest


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("kernel", KERNEL_TABLES)
@pytest.mark.parametrize("key", KEYS, ids=str)
def test_per_pull_trace_matches_parent(golden, key, kernel):
    with kernel_table(kernel):
        assert summary(key) == golden[str(key)]


@pytest.mark.parametrize("key", sorted(GRID))
def test_grid_regime_trace_matches_parent(golden, key):
    _, _, pulls, resolutions = GRID[key]
    measured = summary(key)
    assert measured == golden[key]
    assert measured["pulls"] == pulls
    assert tuple(measured["resolutions"]) == resolutions


@pytest.mark.parametrize("kernel", KERNEL_TABLES)
@pytest.mark.parametrize("key", sorted(HARNESS))
def test_harness_setting_trace_matches_parent(golden, key, kernel):
    with kernel_table(kernel):
        assert summary(key) == golden[key]


def test_every_depth_golden_key_has_a_trace(golden):
    assert sorted(golden) == sorted(
        [str(key) for key in KEYS] + list(GRID) + list(HARNESS))
    for key in KEYS:
        assert golden[str(key)]["pulls"] == sum(GOLDEN[key][:2])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {str(key): summary(key)
         for key in KEYS + sorted(GRID) + sorted(HARNESS)}, indent=1
    ) + "\n")
    print(f"recorded {len(KEYS) + len(GRID) + len(HARNESS)} traces "
          f"-> {GOLDEN_PATH}")
