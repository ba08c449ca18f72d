"""Golden any-k runs: emissions and accounting are bit-identical to the parent.

``anyk_golden.json`` was recorded from the last commit whose DP built one
object per input tuple (before the pass became columnar), and the deep
chain case from the last commit whose enumerator kept a rank vector per
solution and a seen-set per group: per case the digest of the emitted
``(float.hex(score), per-relation tuple identities)`` sequence, the final
``pulls``, ``depths()`` and the DP's ``tuples_processed`` / ``pruned``.  Every case is replayed
under ``try_next(max_pulls=q)`` for several ``q`` — the sequence *and* the
final ``pulls`` are the same at every step budget.

Re-record only from a commit whose any-k answers you trust::

    PYTHONPATH=<that>/src python tests/anyk/test_anyk_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.core.scoring import SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.relation.relation import Relation, tuple_identity

GOLDEN_PATH = Path(__file__).with_name("anyk_golden.json")

QUANTA = (1, 7, 64, None)


def relation(name, rows):
    return Relation(
        name,
        [
            RankTuple(key=i, scores=scores, payload=dict(payload))
            for i, (payload, scores) in enumerate(rows)
        ],
    )


def _harness(k):
    """The ``cold_anyk`` generator settings and scoring of the harness."""
    def build():
        scoring = WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6])
        instance = lineitem_orders_instance(
            WorkloadParams(e=2, c=0.5, z=0.5, k=k, scale=0.0005, seed=0),
            scoring=scoring,
        )
        return AnyKQuery.binary(instance.left, instance.right), scoring, k
    return build


def _ties():
    """Scores from a five-value grid, every tuple present twice or more."""
    rng = np.random.default_rng(27)

    def side(name):
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(40, 2))
        keys = rng.integers(0, 6, size=40).tolist()
        once = Relation.from_arrays(name, keys, scores).tuples
        return Relation(name, list(once) + list(once[:25]) + list(once[:5]))

    scoring = WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6])
    return AnyKQuery.binary(side("L"), side("R")), scoring, None


def _chain4():
    a = relation("A", [({"x": 1}, (0.9,)), ({"x": 2}, (0.5,)), ({"x": 1}, (0.2,))])
    b = relation(
        "B",
        [({"x": 1, "y": 7}, (0.8,)), ({"x": 2, "y": 8}, (0.6,)),
         ({"x": 1, "y": 8}, (0.1,))],
    )
    c = relation(
        "C",
        [({"y": 7, "z": 3}, (0.4,)), ({"y": 8, "z": 4}, (0.3,)),
         ({"y": 7, "z": 4}, (0.7,))],
    )
    d = relation("D", [({"z": 3}, (0.5,)), ({"z": 4}, (0.9,))])
    return AnyKQuery((a, b, c, d), ["x", "y", "z"]), SumScore(), None


def _deep_chain3():
    """Every join value repeats on both links: the middle node's entries
    take child ranks past 1, and every level moves to its next entry."""
    a = relation("A", [
        ({"x": 1}, (0.9,)), ({"x": 2}, (0.7,)), ({"x": 1}, (0.6,)),
        ({"x": 2}, (0.3,)), ({"x": 1}, (0.1,)),
    ])
    b = relation("B", [
        ({"x": 1, "y": 7}, (0.8,)), ({"x": 2, "y": 7}, (0.5,)),
        ({"x": 1, "y": 8}, (0.4,)), ({"x": 2, "y": 8}, (0.9,)),
        ({"x": 1, "y": 7}, (0.2,)),
    ])
    c = relation("C", [
        ({"y": 7}, (0.6,)), ({"y": 8}, (0.5,)), ({"y": 7}, (0.3,)),
        ({"y": 8}, (0.35,)),
    ])
    return AnyKQuery((a, b, c), ["x", "y"]), SumScore(), None


def _empty_relation():
    left = Relation("L", [RankTuple(key=i % 2, scores=(i / 4,)) for i in range(4)])
    return AnyKQuery.binary(left, Relation("R", [])), SumScore(), None


def _no_partner():
    """The child (L) shares no key with the root (R): every root tuple is
    pruned."""
    left = Relation("L", [RankTuple(key=i, scores=(i / 8,)) for i in range(8)])
    right = Relation(
        "R", [RankTuple(key=100 + i, scores=(i / 8,)) for i in range(5)]
    )
    return AnyKQuery.binary(left, right), SumScore(), None


def _k_beyond_the_join():
    left = Relation("L", [RankTuple(key=i % 3, scores=(i / 8,)) for i in range(6)])
    right = Relation("R", [RankTuple(key=i, scores=(i / 4,)) for i in range(2)])
    return AnyKQuery.binary(left, right), SumScore(), 50


#: case -> builder of ``(query, scoring, k)``; ``k is None`` is a full drain.
CASES = {
    "harness cold_anyk top10": _harness(10),
    "harness cold_anyk top50": _harness(50),
    "ties and duplicates, full drain": _ties,
    "chain4": _chain4,
    "deep chain3, full drain": _deep_chain3,
    "empty relation": _empty_relation,
    "child with no partner": _no_partner,
    "K beyond the join": _k_beyond_the_join,
}


def run(case, quantum):
    """Drive ``case`` to its K (or dry) in ``quantum``-pull steps."""
    query, scoring, k = CASES[case]()
    operator = AnyKRankJoin(query, scoring)
    lines = []
    while k is None or len(lines) < k:
        outcome = operator.try_next(max_pulls=quantum)
        if outcome is None:
            break
        if outcome is PENDING:
            continue
        tuples = getattr(outcome, "tuples", None) or (outcome.left, outcome.right)
        lines.append("{} {}".format(
            float(outcome.score).hex(),
            [tuple_identity(tup) for tup in tuples],
        ))
    return operator, lines


def summary(case, quantum=None):
    operator, lines = run(case, quantum)
    return {
        "results": len(lines),
        "first": lines[0] if lines else None,
        "last": lines[-1] if lines else None,
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "pulls": operator.pulls,
        "depths": [
            operator.depth(i) for i in range(len(operator.query.relations))
        ],
        "tuples_processed": operator._dp.tuples_processed,
        "pruned": operator._dp.pruned,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("quantum", QUANTA)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_parent_at_every_step_budget(golden, case, quantum):
    assert summary(case, quantum) == golden[case]


def test_every_case_is_recorded_and_the_harness_pass_is_linear(golden):
    assert sorted(golden) == sorted(CASES)
    # 3 000 lineitems + 750 orders + the pops of ten results.
    assert golden["harness cold_anyk top10"]["tuples_processed"] == 3750
    assert golden["harness cold_anyk top10"]["depths"] == [3000, 750]
    assert golden["child with no partner"]["results"] == 0
    assert golden["child with no partner"]["pruned"] == 5
    assert golden["K beyond the join"]["results"] < 50


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({case: summary(case) for case in sorted(CASES)}, indent=1)
        + "\n"
    )
    print(f"recorded {len(CASES)} runs -> {GOLDEN_PATH}")
