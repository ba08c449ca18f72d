"""Golden multiway runs: the n-ary operator is bit-identical to its parent.

``multiway_golden.json`` was recorded from the commit *before*
``MultiwayRankJoin`` became a join step on the one PBRJ loop (it then
carried its own pull loop, bound interface and input chooser).  For 3- and
4-way chains × {corner, feasible} bound × 3 seeds it pins ``pulls``,
``depths()``, the exact score list and the identity of every emitted
tuple — so a stopping decision, a pull choice or a tie order that moved
shows up here, straight and quantum-stepped alike.  The ``weighted`` cases,
recorded later from the last commit with a separate n-ary feasible bound,
run the same chains under a :class:`~repro.core.scoring.WeightedSum` and
also pin the final bound's bits: weighted partial scores are where the
order of a left-to-right sum shows.  ``3way-feasible-weighted-seed1``,
whose K-th result tied ``t`` within ``SCORE_EPS``, was re-recorded when the
release rule became strict (51 -> 52 pulls).

Re-record only from a commit whose answers you trust::

    PYTHONPATH=<that>/src python tests/core/test_multiway_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.afr_bound import AFRBound
from repro.core.operators import multiway_rank_join
from repro.core.scoring import SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.obs import Observability
from repro.relation.relation import Relation

GOLDEN_PATH = Path(__file__).with_name("multiway_golden.json")

#: arity -> (tuples per relation, distinct join values, score dims, K)
SHAPES = {3: (60, 6, (1, 2, 1), 12), 4: (30, 4, (1, 1, 2, 1), 8)}
#: ``None`` is the operator's default bound (the corner bound).
BOUNDS = {"corner": lambda: None, "feasible": AFRBound}
#: The weights of a ``weighted`` case, the first ``sum(dims)`` of them.
WEIGHTS = (0.3, 0.7, 0.2, 0.9, 0.5)
CASES = [
    (arity, bound, seed, weighted)
    for weighted in (False, True)
    for arity in SHAPES for bound in BOUNDS for seed in range(3)
]


def chain(arity, seed):
    """``arity`` random relations joined R_i.a_i = R_{i+1}.a_i."""
    n, keys, dims, k = SHAPES[arity]
    rng = np.random.default_rng(1000 * arity + seed)
    attrs = [f"a{i}" for i in range(arity - 1)]
    relations = []
    for index in range(arity):
        linked = attrs[max(index - 1, 0): index + 1]
        relations.append(Relation(f"R{index}", [
            RankTuple(
                key=row,
                scores=tuple(float(s) for s in rng.random(dims[index])),
                payload={a: int(rng.integers(0, keys)) for a in linked},
            )
            for row in range(n)
        ]))
    return relations, attrs, k


def run(arity, bound, seed, weighted, quantum=None):
    relations, attrs, k = chain(arity, seed)
    scoring = WeightedSum(WEIGHTS[:sum(SHAPES[arity][2])]) if weighted else SumScore()
    operator = multiway_rank_join(relations, attrs, scoring, bound=BOUNDS[bound]())
    results = []
    while len(results) < k:
        outcome = operator.try_next(max_pulls=quantum)
        if outcome is None:
            break
        if outcome is not PENDING:
            results.append(outcome)
    record = {
        "pulls": operator.pulls,
        "depths": operator.depths(),
        "scores": [r.score for r in results],
        "tuples": [[t.key for t in r.tuples] for r in results],
    }
    if weighted:
        record["bound"] = operator.bound_value
    return record


def case_id(case):
    arity, bound, seed, weighted = case
    return f"{arity}way-{bound}-{'weighted-' * weighted}seed{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("quantum", [None, 7], ids=["straight", "stepped"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_bit_identical_to_parent(golden, case, quantum):
    assert run(*case, quantum=quantum) == golden[case_id(case)]


def test_reporting_surface_is_inherited_from_the_one_loop():
    """What the second loop never had: frontier, per-input views, stats,
    pull tallies flushed into ``pulls_total`` per input."""
    relations, attrs, k = chain(3, seed=0)
    obs = Observability()
    operator = multiway_rank_join(relations, attrs, SumScore(), obs=obs)
    last = operator.top_k(k)[-1]
    assert operator.depths() == [
        obs.metrics.value("pulls_total", op=operator.name, side=str(i))
        for i in range(3)
    ]
    assert operator.frontier() <= last.score + 1e-9
    assert [operator.depth(i) for i in range(3)] == operator.depths()
    assert not any(operator.is_exhausted(i) for i in range(3))
    stats = operator.stats()
    assert stats.sum_depths == operator.sum_depths == operator.pulls
    assert stats.results == k
    assert 0.0 < operator.timing().total


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({case_id(case): run(*case) for case in CASES}, indent=1) + "\n"
    )
    print(f"recorded {len(CASES)} cases -> {GOLDEN_PATH}")
