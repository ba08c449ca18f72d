"""Golden sharded emissions: the engine is bit-identical to the parent.

``sharded_golden.json`` was recorded from the commit *before* the
execution-backend layer was deleted (the parent's default ``serial``
backend), so the engine that now calls ``worker.advance`` itself has no
second implementation to be diffed against — it is diffed against this.
For every seed workload × shards {1, 2, 4, 8} × operator (keys keep the
``hash`` segment they were recorded under; the 64 ``skew`` rows left with
the skew partitioner, the rest of the file untouched) the golden holds a
digest of the ``(score.hex(), result_identity)`` emission
sequence plus exact ``pulls``, ``rounds`` and ``shard_depths()``, at K and
at exhaustion, and once more for a drive through ``try_next(max_pulls)``
under a fixed budget schedule.

Re-record only from a commit whose sharded answers you trust::

    PYTHONPATH=<that>/src:. python tests/exec/test_sharded_golden.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.core.stepping import PENDING
from repro.exec import ExecConfig, ShardedRankJoin, result_identity

from tests.exec.conftest import SEED_WORKLOADS, WORKLOAD_BUILDERS

GOLDEN_PATH = Path(__file__).with_name("sharded_golden.json")

SHARDS = (1, 2, 4, 8)
OPERATORS = ("FRPA", "HRJN*", "a-FRPA", "AnyK")
KEYS = [
    "/".join(map(str, key))
    for key in itertools.product(SEED_WORKLOADS, SHARDS, ("hash",), OPERATORS)
]
#: sha256 of the 64 ``hash`` rows as the parent of the pruning commit
#: spelled them: pruning re-recorded nothing.
SURVIVING_ROWS_SHA256 = (
    "0470594941a024a5050d99b085d9b9b36a7a61fa3edad071f3b570db420d5048"
)
#: Pull budgets handed to successive ``try_next`` calls, cycled; the zeros
#: exercise the release-without-pulling path between rounds.
BUDGETS = (0, 1, 7, 0, 64, 3, 200)


def checkpoint(engine, emitted):
    lines = [f"{r.score.hex()} {result_identity(r)!r}" for r in emitted]
    return {
        "emitted": len(emitted),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "pulls": engine.pulls,
        "rounds": engine.rounds,
        "shard_depths": {
            str(shard): list(depth)
            for shard, depth in sorted(engine.shard_depths().items())
        },
    }


def summary(key, instances):
    workload, shards, _, operator = key.split("/")
    instance = instances[workload]
    config = ExecConfig(shards=int(shards), backend="serial")
    with ShardedRankJoin(instance, operator, config=config) as engine:
        emitted = list(engine.top_k(instance.k))
        at_k = checkpoint(engine, emitted)
        emitted.extend(engine)
        drained = checkpoint(engine, emitted)
    with ShardedRankJoin(instance, operator, config=config) as engine:
        stepped = []
        for budget in itertools.cycle(BUDGETS):
            step = engine.try_next(max_pulls=budget)
            if step is None:
                break
            if step is not PENDING:
                stepped.append(step)
        budgeted = checkpoint(engine, stepped)
    return {"at_k": at_k, "drained": drained, "budgeted": budgeted}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_emissions_match_parent(golden, workloads, key):
    assert summary(key, workloads) == golden[key]


def test_golden_covers_the_whole_matrix(golden):
    assert sorted(golden) == sorted(KEYS)
    for record in golden.values():
        # One answer whichever way it is driven.
        assert record["budgeted"]["sha256"] == record["drained"]["sha256"]


def test_surviving_rows_are_the_parents_bytes():
    rows = [
        line.rstrip(",") for line in GOLDEN_PATH.read_text().splitlines()
        if line.startswith(' "')
    ]
    assert len(rows) == 64
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == SURVIVING_ROWS_SHA256


if __name__ == "__main__":
    instances = {name: build() for name, build in WORKLOAD_BUILDERS.items()}
    GOLDEN_PATH.write_text("{\n" + ",\n".join(  # one case per line
        f" {json.dumps(key)}: {json.dumps(summary(key, instances))}" for key in KEYS
    ) + "\n}\n")
    print(f"recorded {len(KEYS)} cases -> {GOLDEN_PATH}")
