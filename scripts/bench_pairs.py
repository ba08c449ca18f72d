#!/usr/bin/env python3
"""Alternating parent/change runs of the harness benchmark (choosing-metrics §8).

    python scripts/bench_pairs.py /root/scratch/parent . --workload cold_fr2
    python scripts/bench_pairs.py PARENT CHANGE --pairs 10 --out pairs.json
    python scripts/bench_pairs.py PARENT CHANGE --workload cold_fr2 --trace 1 --pairs 3

Each side is a checkout holding ``BENCHMARK.json`` and the harness it names;
every run is that checkout's own ``python3 benchmarks/harness/run.py
--workload W --seed S --seconds T --trace N`` in a fresh process, so each
side builds what it runs from its own source.  Pair ``i`` uses seed
``--seed0 + i`` on both sides and alternates which side runs first.  Per
workload and metric it prints each side's median and quartiles, the pairs
the change won (ties count for neither) and a verdict: ``gain`` needs wins
on at least nine tenths of the pairs *and* medians further apart than the
parent's own inter-quartile distance; ``worse`` is a median past the
metric's bound in ``BENCHMARK.json``; anything else is ``-``.  Nothing is
written under either checkout but what the harness itself leaves in its
``.work/``.

``--record PATH`` appends one JSON line per workload to a trajectory file
(the committed one is ``benchmarks/results/trajectory.jsonl``):
``{workload, parent_sha, change_sha, pairs, seed0, seconds, metrics: {name:
{parent: [q1, median, q3], change: [q1, median, q3], wins}}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One harness run; its last stdout line is the result object."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{checkout}: harness run of {workload} gave no result "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' ``[q1, median, q3]`` and the pairs the change won / lost."""
    lower = spec.get("better", "lower") == "lower"
    return {
        "parent": list(quartiles(parent)),
        "change": list(quartiles(change)),
        "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "losses": sum((c > p) if lower else (c < p) for p, c in zip(parent, change)),
    }


def summarise(name: str, spec: dict, pairs: int, compared: dict) -> str:
    lower = spec.get("better", "lower") == "lower"
    (p1, pm, p3), (c1, cm, c3) = compared["parent"], compared["change"]
    wins, losses = compared["wins"], compared["losses"]
    better = cm < pm if lower else cm > pm
    verdict = "-"
    if better and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    bound = spec.get("bound")
    if bound is not None and not better and abs(cm - pm) > bound * abs(pm):
        verdict = "worse"
    return (f"  {name:28s} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]   "
            f"change {cm:10.4g} [{c1:.4g}, {c3:.4g}]   "
            f"wins {wins}/{pairs} (lost {losses})  {verdict}")


def checkout_sha(checkout: Path) -> str:
    """Short HEAD sha, ``-dirty`` if the tree differs; ``unknown`` outside git."""
    def git(*command: str) -> str | None:
        done = subprocess.run(["git", *command], cwd=checkout,
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "--short", "HEAD")
    if sha is None:
        return "unknown"
    return sha + ("-dirty" if git("status", "--porcelain") else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="a workload name (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--out", type=Path, help="write every run's metrics here")
    parser.add_argument("--record", type=Path,
                        help="append one trajectory line per workload here")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {w: {"parent": [], "change": []} for w in workloads}

    for workload in workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], declared["command"], workload,
                                  args.seed0 + pair, seconds, args.trace)
                runs[workload][side].append(result)
                print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
        if args.out:  # after every workload: a long session loses nothing
            args.out.write_text(json.dumps(runs, indent=1) + "\n")

    shas = {side: checkout_sha(path) for side, path in sides.items()}
    for workload in workloads:
        print(f"\n{workload}  ({args.pairs} pairs, seeds {args.seed0}.."
              f"{args.seed0 + args.pairs - 1}, {seconds:g} s, trace {args.trace})")
        for side in ("parent", "change"):
            results = runs[workload][side]
            print(f"  {side}: failed {sum(r['failed'] for r in results)}"
                  f"/{sum(r['attempted'] for r in results)} operations, "
                  f"{sum(not r['correct'] for r in results)} incorrect runs")
        compared = {}
        for name, spec in specs.items():
            columns = [
                [r["metrics"][name]["value"] for r in runs[workload][side]
                 if r["metrics"].get(name, {}).get("value") is not None]
                for side in ("parent", "change")
            ]
            if columns[0] and len(columns[0]) == len(columns[1]):
                compared[name] = compare(spec, *columns)
                print(summarise(name, spec, len(columns[0]), compared[name]))
        if args.record:
            row = {
                "workload": workload,
                "parent_sha": shas["parent"], "change_sha": shas["change"],
                "pairs": args.pairs, "seed0": args.seed0, "seconds": seconds,
                "metrics": {
                    name: {key: c[key] for key in ("parent", "change", "wins")}
                    for name, c in compared.items()
                },
            }
            with args.record.open("a") as handle:
                handle.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
