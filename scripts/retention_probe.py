#!/usr/bin/env python3
"""Does a long-lived QueryService grow with the queries it has answered?

    python scripts/retention_probe.py [CHECKOUT] [--queries 1200] [--every 200]

Feeds the benchmark's ``cold_corner`` query stream (distinct weights per
query, so nothing is a cache hit) through one in-process ``QueryService``
of ``CHECKOUT`` (default: this one) and prints the resident set size every
``--every`` queries, with what the service still holds.  With the result
cache pinned at its 128 entries the only thing that can keep growing is
what the service retains per finished session — EXPERIMENTS.md, "Serving
loop without timers" and "The result cache holds answers", has the
before / after.  Exits 1 when the final RSS exceeds the first reading by
more than ``MAX_GROWTH_MB``.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

#: RSS a run may gain over its first reading.  1 200 cold queries, with
#: 1 024 finished sessions retained, gain ≈ 6 MB; a cache that kept each
#: entry's operator gained ≈ 36 MB by 200 queries.
MAX_GROWTH_MB = 10


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--queries", type=int, default=1200)
    parser.add_argument("--every", type=int, default=200)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks/harness")]
    from workloads import WORKLOADS, build_relations, timed_queries

    from repro.service import QueryService, QuerySpec

    workload = WORKLOADS["cold_corner"]
    relations = build_relations(workload, 0, {})
    service = QueryService()
    start = rss_mb()
    print(f"{checkout}: rss {start:.1f} MB before the first query")
    started = time.perf_counter()
    for done, query in enumerate(timed_queries(workload, args.queries, 0), 1):
        spec = QuerySpec(
            relations=(relations[query.left], relations[query.right]),
            k=query.k, scoring=query.scoring(), operator=query.operator,
            algorithm=query.algorithm,
        )
        if len(service.run_query(spec)) != query.k:
            raise SystemExit(f"query {done} came back short")
        if done % args.every == 0:
            print(f"  {done:6d} queries: rss {rss_mb():7.1f} MB   "
                  f"finished sessions held {len(service.finished_sessions):5d}   "
                  f"cache entries {service.cache.stats()['entries']}")
    print(f"  {time.perf_counter() - started:.1f} s")
    growth = rss_mb() - start
    service.close()
    if growth > MAX_GROWTH_MB:
        print(f"error: rss grew {growth:.1f} MB, more than {MAX_GROWTH_MB} MB",
              file=sys.stderr)
        return 1
    print(f"  rss grew {growth:.1f} MB (at most {MAX_GROWTH_MB} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
