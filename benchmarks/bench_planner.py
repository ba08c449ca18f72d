"""Planner quality: auto vs best-static vs worst-static over a skew sweep.

The planner's promise is *robustness*: one `algorithm=auto, shards=auto`
spec should land within a small factor of the best static configuration
on every workload, while any single static configuration is badly wrong
somewhere.  This benchmark sweeps join-key skew (Zipf z in {0.5, 0.75,
1.0, 1.25, 1.5}) plus an adversarial hot-key workload (one key holding
~30% of both sides), runs a grid of plausible static plans plus the
planner's auto pick, and writes ``benchmarks/results/BENCH_planner.json``.

Acceptance bars (checked by ``check``; CI runs ``--quick``):

* **auto is never badly wrong** — auto execution time <= 1.15x the best
  static configuration at every Zipf point;
* **every static is badly wrong somewhere** — auto is >= 2x faster than
  the worst static configuration on every z >= 1.0 point;
* **the skew partitioner earns its keep** — at z = 1.0 the 8-shard skew
  partition imbalance (max/mean shard share) is lower than plain hash.

Times include engine construction: a static sharded plan pays the O(n)
partition of both inputs on every query, which is exactly the cost a
planner must learn to avoid on small joins.  Planning
time is recorded separately (``planning_seconds``) — statistics are
content-addressed, so repeated queries over the same relations amortize
it to ~zero.

Run directly: ``python benchmarks/bench_planner.py [--quick]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.core.scoring import SumScore  # noqa: E402
from repro.exec import ExecConfig, ShardedRankJoin  # noqa: E402
from repro.planner import clear_depth_cache, clear_stats_caches  # noqa: E402
from repro.relation.relation import RankJoinInstance, Relation  # noqa: E402
from repro.service.query import QuerySpec  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

ZIPF_POINTS = (0.5, 0.75, 1.0, 1.25, 1.5)

#: Acceptance thresholds (see module docstring).
MAX_AUTO_RATIO = 1.15   # auto <= 1.15x best static at every Zipf point
MIN_WORST_RATIO = 2.0   # worst static >= 2x auto on every z >= 1.0 point
SKEWED_Z = 1.0          # the z from which skew must visibly hurt statics

#: The static grid: plausible fixed choices a user might hard-code.
#: (label, operator, shards, partitioner)
STATIC_GRID = (
    ("serial/HRJN*", "HRJN*", 1, "hash"),
    ("serial/FRPA", "FRPA", 1, "hash"),
    ("x4 hash/serial", "FRPA", 4, "hash"),
    ("x8 skew/serial", "FRPA", 8, "skew"),
)

FULL = {"n": 2000, "num_keys": 24, "k": 10, "repeats": 3}
QUICK = {"n": 700, "num_keys": 24, "k": 8, "repeats": 2}


def zipf_instance(n: int, num_keys: int, k: int, z: float, seed: int):
    """Both sides draw join keys from Zipf(z) over ``num_keys`` values."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_keys + 1, dtype=float)
    weights = ranks ** -z
    weights /= weights.sum()
    left = Relation.from_arrays(
        "L", rng.choice(num_keys, size=n, p=weights).tolist(),
        rng.random((n, 2)),
    )
    right = Relation.from_arrays(
        "R", rng.choice(num_keys, size=n, p=weights).tolist(),
        rng.random((n, 2)),
    )
    return RankJoinInstance(left, right, SumScore(), k)


def hot_key_instance(n: int, num_keys: int, k: int, seed: int):
    """Adversarial: one key holds ~30% of the tuples on *both* sides."""
    rng = np.random.default_rng(seed)
    hot = int(0.3 * n)
    keys = [0] * hot + rng.integers(1, num_keys, size=n - hot).tolist()
    rng.shuffle(keys)
    left = Relation.from_arrays("L", list(keys), rng.random((n, 2)))
    rng.shuffle(keys)
    right = Relation.from_arrays("R", list(keys), rng.random((n, 2)))
    return RankJoinInstance(left, right, SumScore(), k)


def run_static(instance, operator, shards, partitioner, repeats):
    """Best-of-``repeats`` wall time for one static configuration.

    Construction is inside the timed region — partitioning is part of
    what a static plan charges per query.
    """
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        engine = ShardedRankJoin(
            instance,
            operator=operator,
            config=ExecConfig(shards=shards, partitioner=partitioner),
        )
        results = engine.top_k(instance.k)
        seconds = time.perf_counter() - started
        sample = {
            "seconds": seconds,
            "results": len(results),
            "top_scores": [round(r.score, 6) for r in results[:3]],
        }
        if best is None or seconds < best["seconds"]:
            best = sample
    return best


def run_auto(instance, repeats):
    """Best-of-``repeats`` for the planner-resolved spec.

    The first resolve pays statistics collection + candidate scoring;
    we report that as ``planning_seconds`` and time execution alone,
    mirroring the prepared-statement usage the service exposes.
    """
    clear_stats_caches()
    clear_depth_cache()
    spec = QuerySpec(
        relations=(instance.left, instance.right),
        k=instance.k,
        scoring=instance.scoring,
        algorithm="auto",
        shards="auto",
    )
    started = time.perf_counter()
    resolved = spec.resolve()
    planning_seconds = time.perf_counter() - started
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        results = resolved.build_operator().top_k(instance.k)
        seconds = time.perf_counter() - started
        sample = {
            "seconds": seconds,
            "results": len(results),
            "top_scores": [round(r.score, 6) for r in results[:3]],
        }
        if best is None or seconds < best["seconds"]:
            best = sample
    best["planning_seconds"] = planning_seconds
    best["plan"] = resolved.decision.summary()
    return best


def partition_imbalance(instance, partitioner, shards=8):
    """Max/mean shard-share imbalance of the chosen partition plan."""
    engine = ShardedRankJoin(
        instance,
        operator="FRPA",
        config=ExecConfig(shards=shards, partitioner=partitioner),
    )
    engine.top_k(instance.k)
    return engine.partition_stats.imbalance


def bench_workload(name, z, instance, repeats):
    row = {"name": name, "z": z, "k": instance.k, "static": {}}
    for label, operator, shards, partitioner in STATIC_GRID:
        row["static"][label] = run_static(
            instance, operator, shards, partitioner, repeats
        )
    row["auto"] = run_auto(instance, repeats)

    scores = {tuple(s["top_scores"]) for s in row["static"].values()}
    scores.add(tuple(row["auto"]["top_scores"]))
    assert len(scores) == 1, f"{name}: configurations disagree on top-k scores"

    statics = {label: s["seconds"] for label, s in row["static"].items()}
    best_label = min(statics, key=statics.get)
    worst_label = max(statics, key=statics.get)
    auto_seconds = row["auto"]["seconds"]
    row["best_static"] = {"label": best_label, "seconds": statics[best_label]}
    row["worst_static"] = {"label": worst_label, "seconds": statics[worst_label]}
    row["auto_vs_best"] = auto_seconds / max(statics[best_label], 1e-9)
    row["worst_vs_auto"] = statics[worst_label] / max(auto_seconds, 1e-9)
    return row


def run_bench(quick: bool) -> dict:
    params = QUICK if quick else FULL
    record: dict = {
        "mode": "quick" if quick else "full",
        "params": params,
        "workloads": [],
    }
    for z in ZIPF_POINTS:
        instance = zipf_instance(
            params["n"], params["num_keys"], params["k"], z, seed=int(z * 100)
        )
        record["workloads"].append(
            bench_workload(f"zipf-{z}", z, instance, params["repeats"])
        )
    adversarial = hot_key_instance(
        params["n"], params["num_keys"], params["k"], seed=77
    )
    record["workloads"].append(
        bench_workload("hot-key", None, adversarial, params["repeats"])
    )

    skew_probe = zipf_instance(
        params["n"], params["num_keys"], params["k"], SKEWED_Z, seed=100
    )
    record["imbalance_z1"] = {
        "hash": partition_imbalance(skew_probe, "hash"),
        "skew": partition_imbalance(skew_probe, "skew"),
    }
    return record


def check(record: dict) -> list[str]:
    """The acceptance bars from the module docstring."""
    errors = []
    for row in record["workloads"]:
        if row["z"] is None:
            continue
        if row["auto_vs_best"] > MAX_AUTO_RATIO:
            errors.append(
                f"{row['name']}: auto is {row['auto_vs_best']:.2f}x the best "
                f"static ({row['best_static']['label']}), bar is "
                f"{MAX_AUTO_RATIO}x"
            )
        if row["z"] >= SKEWED_Z and row["worst_vs_auto"] < MIN_WORST_RATIO:
            errors.append(
                f"{row['name']}: worst static ({row['worst_static']['label']})"
                f" only {row['worst_vs_auto']:.2f}x slower than auto, bar is "
                f"{MIN_WORST_RATIO}x"
            )
    imbalance = record["imbalance_z1"]
    if not imbalance["skew"] < imbalance["hash"]:
        errors.append(
            f"skew partitioner did not improve 8-shard imbalance at z=1.0: "
            f"skew={imbalance['skew']:.2f} vs hash={imbalance['hash']:.2f}"
        )
    return errors


def report(record: dict) -> None:
    print()
    print(f"planner sweep ({record['mode']}):")
    for row in record["workloads"]:
        auto = row["auto"]
        print(
            f"  {row['name']:<10} auto {auto['seconds'] * 1e3:7.1f}ms "
            f"[{auto['plan']}]  best {row['best_static']['seconds'] * 1e3:7.1f}ms "
            f"[{row['best_static']['label']}] ({row['auto_vs_best']:.2f}x)  "
            f"worst {row['worst_static']['seconds'] * 1e3:7.1f}ms "
            f"[{row['worst_static']['label']}] ({row['worst_vs_auto']:.1f}x)  "
            f"plan {auto['planning_seconds'] * 1e3:.0f}ms"
        )
    imbalance = record["imbalance_z1"]
    print(
        f"  8-shard imbalance at z={SKEWED_Z}: "
        f"hash {imbalance['hash']:.2f} -> skew {imbalance['skew']:.2f}"
    )


def write_record(record: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_planner.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads for CI freshness runs")
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
