"""Sharded execution scaling: wall-clock speedup and sumDepths overhead.

Runs the same top-K query serially and through :class:`ShardedRankJoin`
for shards ∈ {1, 2, 4, 8} and writes
``benchmarks/results/BENCH_sharded.json`` — per-shard-count wall-clock
speedup over serial FRPA and the sumDepths overhead the partitioned run
pays (each shard must drive its own local threshold down).

The workload has 5-d scores: FR*'s per-pull cover/skyline maintenance
cost grows superlinearly with depth at e=5 (the cover blows up), so
shards — each seeing ~1/S of the data and stopping at ~1/S of the
depth — do far less bound work in total.  The measured speedup is
therefore *algorithmic* and shows up even on a single core; it is not
a core-count artefact.

Run under pytest (``REPRO_BENCH_SHARDED_QUICK=1`` for the small
workload) or directly: ``python benchmarks/bench_sharded_scaling.py
[--quick]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.pbrj import SCORE_EPS  # noqa: E402
from repro.data.workload import random_instance  # noqa: E402
from repro.exec import ExecConfig, ShardedRankJoin, result_identity  # noqa: E402
from repro.service import QuerySpec  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

SHARD_COUNTS = (1, 2, 4, 8)

#: Uniform 5-d scores; n tuples per side, ~4 join partners per key.
#: The pull quantum is small because total depths are only a few hundred
#: at this scale — quantum overshoot would otherwise dominate overhead.
FULL_PARAMS = {"n": 150, "num_keys": 40, "k": 8}
QUICK_PARAMS = {"n": 120, "num_keys": 30, "k": 6}
QUANTUM = 16
DIMENSION = 5

#: Acceptance thresholds for the 4-shard row.
MIN_SPEEDUP_AT_4 = 2.0
MAX_OVERHEAD_AT_4 = 0.10


def build_instance(params: dict):
    return random_instance(
        n_left=params["n"], n_right=params["n"],
        e_left=DIMENSION, e_right=DIMENSION,
        num_keys=params["num_keys"], k=params["k"], seed=7,
    )


def canonical_serial_top_k(instance, k: int):
    """Serial top-k with boundary ties re-ordered by content identity."""
    op = QuerySpec(
        relations=(instance.left, instance.right), k=k
    ).build_operator()
    results = []
    while True:
        result = op.get_next()
        if result is None:
            break
        results.append(result)
        if len(results) >= k and result.score < results[k - 1].score - SCORE_EPS:
            break
    results.sort(key=lambda r: (-r.score, result_identity(r)))
    return results[:k], op


def run_bench(quick: bool) -> dict:
    params = QUICK_PARAMS if quick else FULL_PARAMS
    instance = build_instance(params)
    k = params["k"]

    started = time.perf_counter()
    reference, serial_op = canonical_serial_top_k(instance, k)
    serial_seconds = time.perf_counter() - started
    serial_pulls = serial_op.pulls
    want = [(r.score, result_identity(r)) for r in reference]

    rows = []
    for shards in SHARD_COUNTS:
        config = ExecConfig(shards=shards, backend="serial", quantum=QUANTUM)
        started = time.perf_counter()
        with ShardedRankJoin(instance, "FRPA", config=config) as engine:
            results = engine.top_k(k)
            seconds = time.perf_counter() - started
            got = [(r.score, result_identity(r)) for r in results]
            assert got == want, (
                f"sharded answer diverges from serial at shards={shards}"
            )
            rows.append({
                "shards": shards,
                "seconds": seconds,
                "speedup": serial_seconds / seconds,
                "sum_depths": engine.pulls,
                "sum_depths_overhead": (
                    (engine.pulls - serial_pulls) / serial_pulls
                ),
                "imbalance": engine.partition_stats.imbalance,
            })

    return {
        "mode": "quick" if quick else "full",
        "workload": {"e": DIMENSION, "seed": 7, "quantum": QUANTUM, **params},
        "serial": {"seconds": serial_seconds, "sum_depths": serial_pulls},
        "scaling": rows,
    }


def check(record: dict) -> list[str]:
    """The acceptance thresholds, evaluated on the 4-shard row."""
    row = next(r for r in record["scaling"] if r["shards"] == 4)
    errors = []
    if row["speedup"] < MIN_SPEEDUP_AT_4:
        errors.append(
            f"4-shard speedup {row['speedup']:.2f}x < {MIN_SPEEDUP_AT_4}x"
        )
    if row["sum_depths_overhead"] > MAX_OVERHEAD_AT_4:
        errors.append(
            f"4-shard sumDepths overhead {row['sum_depths_overhead']:.1%} "
            f"> {MAX_OVERHEAD_AT_4:.0%}"
        )
    return errors


def report(record: dict) -> None:
    serial = record["serial"]
    print()
    print(
        f"sharded scaling ({record['mode']}): serial "
        f"{serial['seconds']:.2f}s / {serial['sum_depths']} pulls"
    )
    for row in record["scaling"]:
        print(
            f"  shards={row['shards']}: {row['seconds']:.2f}s "
            f"({row['speedup']:.2f}x), sumDepths {row['sum_depths']} "
            f"({row['sum_depths_overhead']:+.1%}), "
            f"imbalance {row['imbalance']:.2f}"
        )


def write_record(record: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sharded.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


def test_sharded_scaling():
    quick = bool(os.environ.get("REPRO_BENCH_SHARDED_QUICK"))
    record = run_bench(quick)
    report(record)
    write_record(record)
    errors = check(record)
    assert not errors, errors


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI freshness runs")
    args = parser.parse_args()
    bench_record = run_bench(args.quick)
    report(bench_record)
    write_record(bench_record)
    failures = check(bench_record)
    if failures:
        print("BENCH FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("BENCH OK")
