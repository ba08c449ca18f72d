"""One harness, five named workloads: the repo's benchmark.

    python benchmarks/harness/run.py                  # everything, both passes
    python benchmarks/harness/run.py --workload cold_fr2 --seed 3 \\
        --seconds 12 --trace 0                        # one measured run
    python benchmarks/harness/run.py --smoke          # a quick check, <20 s
    python benchmarks/harness/run.py --aa 2 --record  # A/A sets -> history
    python benchmarks/harness/run.py --selfcheck      # the oracle can fail

Generates inputs from ``--seed``, boots a real two-worker ``ServeFleet``,
drives the workload over TCP in a closed loop, checks every answer against
the naive oracle, and prints every metric by name with unit and bound.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of stdout is the result as one JSON object.  Names,
units, directions and bounds live in ``BENCHMARK.json`` at the repo root;
README.md beside this file says what each one means.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
ROOT = HARNESS_DIR.parent.parent
RESULTS_DIR = HARNESS_DIR / "results"

#: Rehearsal set-ups before, and again after, the timed loop of an
#: untraced run; ``setup_s`` is the median of these and the loop's own.
REHEARSALS = 2
#: Polls per timed repetition of the ``fleet.rtt_p50_norm`` probe.
POLLS = 20
#: Runs per A/A set.
AA_RUNS = 3


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def run_untraced(workload, args) -> dict:
    """The end-to-end pass: rehearsal set-ups, the timed loop, rehearsals."""
    from measure import NOMINAL_SPIN_S, Machine, Oracle, Serving, \
        peak_rss_mb, percentile, pinned_environment, run_pass
    from workloads import scaled_ops, timed_queries

    ops_count = scaled_ops(workload.ops, args.scale)
    queries = timed_queries(workload, ops_count, args.seed)
    machine = Machine()
    setups = []

    def set_up(workdir):
        """A fresh set-up; its time in spin units is kept."""
        spins = [machine.spin()]
        serving = Serving(workload, args.seed, ops_count, workdir)
        spins.append(machine.spin())
        setups.append(serving.setup_s / machine.unit(spins, 0))
        return serving

    # A rehearsal is a complete set-up (its own fleet, booted, warmed and
    # shut down).  Slow phases of this sandbox last seconds, so set-ups on
    # both sides of the loop sample them where bunched ones share one.
    rehearsals = 0 if args.quick else REHEARSALS
    with pinned_environment() as workdir:
        for _ in range(rehearsals):
            set_up(workdir).close()
        with contextlib.closing(set_up(workdir)) as serving:
            ops = run_pass(serving.client, queries, workload.spin_every, machine)
            rss = peak_rss_mb()
        for _ in range(rehearsals):
            set_up(workdir).close()
        oracle = Oracle(serving.relations, workload.cold)
        failures = oracle.check(ops, args.seed)
    good = [op for index, op in enumerate(ops) if index not in failures]
    if not good:
        raise RuntimeError(f"no query succeeded: {list(failures.values())[:3]}")
    ttk = [op.ttk_norm for op in good]
    # Reads made on behalf of the timed queries: their own pulls plus,
    # on the warm workload, the pulls that filled the cache they hit.
    fill = 0 if workload.cold else sum(s["pulls"] for _, s in serving.warmups)
    return {
        "attempted": len(ops),
        "failures": failures,
        "samples": len(good),
        "machine": machine.state(),
        "ops": ops,
        "oracle": oracle,
        # Reported, recorded, not gated: its ten-run spread reached 27 %
        # on this sandbox, past the 25 % a bound may be.
        "ungated": {"ttk_p90_norm": percentile(ttk, 0.9)},
        "metrics": {
            "setup_s": statistics.median(setups) * NOMINAL_SPIN_S,
            "ttfr_p50_norm": percentile((op.ttfr / op.unit for op in good), 0.5),
            "ttk_p50_norm": percentile(ttk, 0.5),
            "qps_norm": len(good) / sum(ttk),
            "sum_depths_per_query":
                (sum(op.snapshot["pulls"] for op in good) + fill) / len(good),
            "peak_rss_mb": rss,
        },
    }


def run_traced(workload, args) -> dict:
    """The per-layer pass: a short TCP pass, half of it traced, then the
    in-process probes on the same query stream; spans go to results/."""
    from layers import REPS, SLOW_PROBES, Probes
    from measure import Machine, Oracle, Serving, percentile, \
        pinned_environment, run_pass
    from spans import SpanLog
    from workloads import WORKLOADS, build_relations, probe_queries, \
        scaled_ops, timed_queries

    half = scaled_ops(workload.traced_ops, args.scale)
    queries = timed_queries(workload, 2 * half, args.seed)
    machine, spans = Machine(), SpanLog()
    reps = 1 if args.quick else REPS
    with pinned_environment() as workdir:
        with contextlib.closing(Serving(workload, args.seed, 2 * half,
                                        workdir)) as serving:
            client = serving.client
            before = client.stats()
            untraced = run_pass(client, queries[:half], workload.spin_every, machine)
            traced = run_pass(client, queries[half:], workload.spin_every,
                              machine, spans)
            after = client.stats()
            finished = next(op.snapshot["session"] for op in reversed(traced)
                            if op.snapshot is not None)
            rtt, _ = machine.bracketed(
                lambda rep: [client.poll(finished) for _ in range(POLLS)], reps)
        ops = untraced + traced
        oracle = Oracle(serving.relations, workload.cold)
        failures = oracle.check(ops, args.seed)
        good = [op for index, op in enumerate(ops) if index not in failures]
        if not good:
            raise RuntimeError(f"no query succeeded: {list(failures.values())[:3]}")

        past = 2 * half + 2
        probes = Probes(workload, serving.relations,
                        probe_queries(workload, past, 2 * reps), machine, spans,
                        workdir, reps)
        probes.core()
        probes.kernel_calls()
        probes.anyk()
        probes.service()
        probes.relation(serving.timings)
        if args.quick:
            probes.metrics.update(dict.fromkeys(SLOW_PROBES))
        else:
            probes.calibration()
            reference = WORKLOADS["cold_fr2"]
            lo_relations = (serving.relations if workload.data == reference.data
                            else build_relations(reference, args.seed, {}))
            probes.off_path(lo_relations, probe_queries(reference, past, 1)[0])

    def p50(values) -> float:
        return percentile(values, 0.5)

    good_ids = {id(op) for op in good}

    def cycle_p50(part) -> float:
        return p50(op.cycle / op.unit for op in part if id(op) in good_ids)

    cache = {name: after["cache"][name] - before["cache"][name]
             for name in ("hits", "misses", "shared_hits", "shared_stores")}
    routed = [
        sum(after["workers"][w]["scheduler"]["finished"].values())
        - sum(before["workers"][w]["scheduler"]["finished"].values())
        for w in sorted(after["workers"])
    ]
    ttk_p50 = p50(op.ttk_norm for op in good)
    rtt_norm = statistics.median(rtt) / POLLS
    metrics = probes.metrics
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "machine.spin_p50_s": machine.spin_p50,
        "machine.spin_cv": machine.spin_cv,
        "machine.noisy_share": machine.noisy_share,
        # Op start to next op start, so the span bookkeeping (done after
        # ``done`` is stamped, outside ttk) is inside what is compared.
        "trace.overhead_ratio": cycle_p50(traced) / cycle_p50(untraced),
        # One request/response relay each for submit and stream, plus
        # everything the service does in-process; the rest is event-loop
        # waiting (idle back-off, quantum yields) and result events.
        "unaccounted_share":
            1.0 - (2 * rtt_norm + metrics["service.run_query_norm"]) / ttk_p50
            if workload.cold else 1.0 - 2 * rtt_norm / ttk_p50,
        "harness.error_rate": len(failures) / len(ops),
        "harness.setup_raw_s": serving.setup_s,
        "client.ttk_raw_p50_s": p50(op.ttk for op in good),
        "client.ttfr_raw_p50_s": p50(op.ttfr for op in good),
        "client.ttk_p90_norm": percentile((op.ttk_norm for op in good), 0.9),
        "client.submit_rtt_p50_norm": p50(op.submit_rtt / op.unit for op in good),
        "fleet.rtt_p50_norm": rtt_norm,
        "fleet.wire_overhead_p50_norm":
            p50((op.ttk - op.snapshot["latency"]) / op.unit for op in good),
        "fleet.route_imbalance": max(routed) / (sum(routed) / len(routed)),
        "server.events_per_query": statistics.fmean(op.events for op in good),
        "service.steps_per_query":
            statistics.fmean(op.snapshot["steps"] for op in good),
        "service.cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "service.cache.shared_hits": float(cache["shared_hits"]),
        "service.cache.shared_stores": float(cache["shared_stores"]),
    })
    RESULTS_DIR.mkdir(exist_ok=True)
    spans.write(RESULTS_DIR / f"trace_{workload.name}.jsonl")
    return {
        "attempted": len(ops),
        "failures": failures,
        "samples": len(good),
        "machine": machine.state(),
        "self_seconds": spans.self_seconds(),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# One run: report and result line
# ----------------------------------------------------------------------
def single(args, contract) -> int:
    """One workload, one pass, in this process — what the driver runs.

    Prints every metric by name, then a ``details`` line (what the
    multi-run modes need beyond the contract: sample count, the machine's
    spin statistics, the noise flag), then the result object.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner, declared = ((run_traced, contract["per_layer"]) if args.trace
                        else (run_untraced, contract["end_to_end"]))
    result = runner(workload, args)
    metrics = result["metrics"]
    names = {entry["name"] for entry in declared}
    if names != set(metrics):
        raise RuntimeError(
            "BENCHMARK.json and the harness disagree on metric names: "
            f"{sorted(names ^ set(metrics))}")
    noisy = result["machine"]["noisy"]
    print(f"\n== {workload.name} · "
          f"{'per-layer (traced)' if args.trace else 'end-to-end'}"
          f" · {result['samples']}/{result['attempted']} correct samples"
          f"{' · NOISY MACHINE' if noisy else ''}")
    for entry in declared:
        bound = f"  may worsen by {entry['bound']:.1%}" if "bound" in entry else ""
        value = metrics[entry["name"]]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {entry['name']:<34} {shown:>12} {entry['unit']:<11}"
              f" {entry['better']:<6}{bound}")
    if args.trace:
        own = sorted(result["self_seconds"].items(), key=lambda kv: -kv[1])
        print("  span self time: " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds in own[:8]))
    for name, value in result.get("ungated", {}).items():
        print(f"  {name:<34} {value:>12.6g} spin_units  lower   (not gated)")
    for reason in list(result["failures"].values())[:5]:
        print(f"  ! {reason}")
    print("details " + json.dumps(
        {"samples": result["samples"], "machine": result["machine"],
         "ungated": result.get("ungated", {})}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }))
    return 1 if result["failures"] else 0


# ----------------------------------------------------------------------
# Many runs: each in a fresh process, as the driver makes them
# ----------------------------------------------------------------------
def child(args, name: str, trace: int) -> tuple[str, dict, dict]:
    """Run one (workload, pass) as its own process -> (report, details,
    values).

    A fresh process per run keeps ``peak_rss_mb`` (a high-water mark
    that forked workers inherit) and every other piece of process state
    independent of the runs before it.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--trace", str(trace),
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--smoke"] * args.smoke
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode:
        print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
        raise SystemExit(f"{name} --trace {trace} failed")
    values = {metric: entry["value"]
              for metric, entry in json.loads(lines[-1])["metrics"].items()}
    details = json.loads(lines[-2].removeprefix("details "))
    return "\n".join(lines[:-2]), details, values


def derived(untraced: dict) -> None:
    """Numbers that need two workloads sharing data and query stream."""
    if not {"cold_fr2", "cold_corner"} <= set(untraced):
        return
    fr2, corner = untraced["cold_fr2"], untraced["cold_corner"]
    ttk_gap = fr2["ttk_p50_norm"] - corner["ttk_p50_norm"]
    depth_gap = corner["sum_depths_per_query"] - fr2["sum_depths_per_query"]
    print("\n== derived (cold_fr2 vs cold_corner; not gated)")
    print(f"  frpa_over_hrjn_ttk_ratio          "
          f"{fr2['ttk_p50_norm'] / corner['ttk_p50_norm']:.4g}  (ROADMAP gate: <= 3)")
    print(f"  crossover_cost_norm_per_tuple     {ttk_gap / depth_gap:.4g}  "
          "spin units of per-tuple access cost above which FRPA's fewer "
          "reads beat HRJN*'s cheaper CPU")


@functools.cache
def git_state() -> tuple[str | None, bool]:
    """(HEAD's sha, whether the tree differs from it) — once per process."""
    def git(*command: str) -> str:
        return subprocess.run(["git", *command], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()

    return git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain"))


def history_rows(args, name: str, details: dict, values: dict, layers: dict,
                 **extra) -> list[dict]:
    sha, dirty = git_state()
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform(), **details["machine"]}
    return [
        {"git_sha": sha, "dirty": dirty, "machine": machine, "seed": args.seed,
         "seconds": args.seconds, "workload": name, "metric": metric, "value": value,
         "samples": details["samples"], "noisy": details["machine"]["noisy"],
         # The layer split rides on the headline row only.
         "layers": layers if metric == "ttk_p50_norm" else {}, **extra}
        for metric, value in {**values, **details["ungated"]}.items()
    ]


def record(rows: list[dict]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "history.jsonl", "a") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def measure_all(args, names) -> int:
    """Every named workload, both passes unless ``--trace`` picks one."""
    passes = [args.trace] if args.trace is not None else [0, 1]
    runs = [(name, trace) for name in names for trace in passes]
    untraced, kept, layers = {}, {}, {}
    # A smoke run gates nothing, so its runs share the two cores in pairs.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        finished = pool.map(lambda run: child(args, *run), runs)
        for (name, trace), (report, details, values) in zip(runs, finished):
            print(report, flush=True)
            if trace:
                layers[name] = values
            else:
                untraced[name], kept[name] = values, details
    derived(untraced)
    if args.record:
        record([row for name, values in untraced.items()
                for row in history_rows(args, name, kept[name], values,
                                        layers.get(name, {}))])
    return 0


def worse_by(entry: dict, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if entry["better"] == "lower" else -change


def run_aa(args, contract, names) -> int:
    """N back-to-back sets of AA_RUNS runs; medians must agree in bound."""
    sets = [{name: [] for name in names} for _ in range(args.aa)]
    rows = []
    for index, current in enumerate(sets):
        for run in range(AA_RUNS):
            for name in names:
                _, details, values = child(args, name, 0)
                current[name].append(values)
                rows += history_rows(args, name, details, values, {},
                                     set=index, run=run)
                print(f"set {index} run {run} {name}: " + "  ".join(
                    f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    disagreements = 0
    for name in names:
        print(f"\n== A/A {name}")
        for entry in contract["end_to_end"]:
            metric = entry["name"]
            medians = [statistics.median(run[metric] for run in s[name]) for s in sets]
            values = [run[metric] for s in sets for run in s[name]]
            spread = (max(values) - min(values)) / statistics.median(values)
            worst = max(worse_by(entry, a, b) for a in medians for b in medians)
            verdict = "ok" if worst <= entry["bound"] else "DISAGREE"
            disagreements += verdict != "ok"
            print(f"  {metric:<22} set medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + f"  apart {worst:.2%}  run spread {spread:.2%}"
                  f"  bound {entry['bound']:.1%}  {verdict}")
    if args.record and not disagreements:
        record(rows)
    return 1 if disagreements else 0


def selfcheck(args) -> int:
    """Prove a wrong or silently cached answer cannot post a latency."""
    import copy

    from workloads import WORKLOADS

    def wrong_score(snapshot: dict) -> None:
        snapshot["scores"][0] += 1e-6

    def silently_cached(snapshot: dict) -> None:
        snapshot["from_cache"] = True

    result = run_untraced(WORKLOADS["cold_corner"], args)
    if result["failures"]:
        print(f"selfcheck: the honest run already failed: {result['failures']}")
        return 1
    for corrupt in (wrong_score, silently_cached):
        ops = copy.deepcopy(result["ops"])
        corrupt(ops[0].snapshot)
        failed = len(result["oracle"].check(ops, args.seed))
        print(f"selfcheck: {corrupt.__name__} on one answer -> "
              f"error_rate {failed / len(ops):.3f}")
        if failed != 1:
            print("selfcheck FAILED: the corruption went unnoticed")
            return 1
    print("selfcheck OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives key labels, tuple order, query order and "
                             "the oracle sample")
    parser.add_argument("--seconds", type=float, default=None,
                        help="scales the fixed op counts (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: per-layer pass (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the ops, one set-up, one repetition "
                             "per probe, no slow probes; gates nothing")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="N sets of 3 untraced runs; fail if their medians "
                             "disagree beyond a bound")
    parser.add_argument("--record", action="store_true",
                        help="append rows to results/history.jsonl")
    parser.add_argument("--selfcheck", action="store_true",
                        help="corrupt an answer in memory; error_rate must move")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a checkout of the repo (src/repro and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    declared = [w["name"] for w in contract["workloads"]]
    if declared != list(WORKLOADS):
        print("error: BENCHMARK.json and workloads.py name different workloads",
              file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{declared}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    # Op counts are stated at run_seconds and scale linearly from there.
    # Quick runs check that everything works; they gate nothing.
    args.quick = args.smoke or args.selfcheck
    args.scale = args.seconds / contract["run_seconds"] / (10 if args.quick else 1)
    names = [args.workload] if args.workload else declared
    if args.selfcheck:
        return selfcheck(args)
    if args.aa:
        return run_aa(args, contract, names)
    if args.workload is not None and args.trace is not None:
        return single(args, contract)
    return measure_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
