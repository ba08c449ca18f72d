#!/usr/bin/env python
"""CI smoke test for sharded execution.

Runs the same zipf-skewed top-K query serially and with 4 hash-partitioned
shards and asserts the answers agree score-for-score with ties in
canonical identity order. Exits nonzero on any mismatch; the CI step wraps
it in a hard ``timeout``.

Usage: python scripts/shard_smoke.py [--shards 4] [--scale 0.002] [--k 20]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.pbrj import SCORE_EPS  # noqa: E402
from repro.data.workload import WorkloadParams, lineitem_orders_instance  # noqa: E402
from repro.exec import ExecConfig, ShardedRankJoin, result_identity  # noqa: E402
from repro.service import QuerySpec  # noqa: E402


def canonical_serial_top_k(instance, k: int) -> list:
    """Serial top-k with boundary ties re-ordered canonically."""
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
    return results[:k]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--k", type=int, default=20)
    args = parser.parse_args()

    instance = lineitem_orders_instance(WorkloadParams(
        e=2, c=0.5, z=0.5, k=args.k, scale=args.scale,
        join_skew=0.9, seed=1,
    ))
    print(
        f"workload: zipf join skew, |L|={len(instance.left)}, "
        f"|R|={len(instance.right)}, k={args.k}"
    )

    start = time.perf_counter()
    reference = canonical_serial_top_k(instance, args.k)
    serial_seconds = time.perf_counter() - start
    want = [(r.score, result_identity(r)) for r in reference]
    print(f"serial:   {len(reference)} results in {serial_seconds:.3f}s")

    config = ExecConfig(shards=args.shards, backend="serial")
    start = time.perf_counter()
    with ShardedRankJoin(instance, "FRPA", config=config) as engine:
        sharded = engine.top_k(args.k)
        got = [(r.score, result_identity(r)) for r in sharded]
        seconds = time.perf_counter() - start
        print(
            f"hash x{args.shards}: {len(sharded)} results "
            f"in {seconds:.3f}s, {engine.pulls} pulls, "
            f"imbalance {engine.partition_stats.imbalance:.2f}"
        )
    if got != want:
        diverges = next(
            (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
            min(len(got), len(want)),
        )
        print(
            f"SMOKE FAILED: x{args.shards} diverges from serial at "
            f"rank {diverges}: got {got[diverges:diverges + 1]}, "
            f"want {want[diverges:diverges + 1]}"
        )
        return 1
    print(
        f"SMOKE OK: {args.shards}-shard top-{args.k} matches serial "
        f"(scores and tie order)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
