"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``   run registered experiments (the paper's figures, ablations,
              extensions); ``--check`` evaluates their shape claims,
              ``--out`` rewrites the committed tables
``run``       run one operator on a synthetic workload and report metrics
``compare``   run every operator on one workload and tabulate the results
``trace``     run one operator with full observability and print the
              span/metric/bound-evolution summary
``serve``     start the concurrent top-K query service (JSON-lines TCP
              protocol; see ``repro.service``)
``metrics``   scrape a running server's metric registry and print it in
              Prometheus text exposition format
``top``       live terminal dashboard over a running server (SLO
              percentiles, cache state, in-flight sessions)
``chaos``     stream the seed workloads off a server under seeded request
              faults and verify bit-identity with the fault-free run
``info``      print the library inventory (operators, figures, defaults)

``run`` and ``compare`` accept ``--workload params.json`` to load the
workload knobs from a JSON file instead of flags.  ``run``, ``compare``,
``figures`` and ``trace`` accept ``--obs-out events.jsonl`` to append a
machine-readable JSONL event stream (spans, metrics, per-run records) for
offline analysis.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro import kernels
from repro.core.operators import ANYK_OPERATOR, OPERATORS
from repro.data.workload import WorkloadParams, lineitem_orders_instance, load_workload
from repro.errors import ReproError
from repro.experiments.harness import run_comparison, run_operator
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.experiments.report import ExperimentTable
from repro.kernels.dispatch import NEVER
from repro.obs import JsonlExporter, Observability
from repro.stats.trace import BoundTrace


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--e", type=int, default=2, help="score attributes per input")
    parser.add_argument("--c", type=float, default=0.5, help="score cut")
    parser.add_argument("--z", type=float, default=0.5, help="score skew")
    parser.add_argument("--k", type=int, default=10, help="results requested")
    parser.add_argument("--scale", type=float, default=0.002, help="data scale factor")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload", metavar="PATH",
        help="JSON file of WorkloadParams fields; overrides the flags above",
    )


def _workload(args: argparse.Namespace) -> WorkloadParams:
    """Workload knobs from --workload file (wins) or individual flags.

    Either way :class:`WorkloadParams` validates them: a missing or
    malformed file or an out-of-range knob raises
    :class:`~repro.errors.WorkloadError`, which command handlers turn into
    a clean one-line error.
    """
    if getattr(args, "workload", None):
        return load_workload(args.workload)
    return WorkloadParams(
        e=args.e, c=args.c, z=args.z, k=args.k, scale=args.scale, seed=args.seed,
        algorithm=getattr(args, "algorithm", "pbrj"),
    )


def _fail(problem: object) -> int:
    """Print a one-line error to stderr (no traceback) and exit nonzero."""
    print(f"error: {problem}", file=sys.stderr)
    return 2


def _unknown_operator(name: str) -> int:
    return _fail(f"unknown operator {name!r}; choose from {sorted(OPERATORS)}")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-out", metavar="PATH",
        help="append a JSONL observability event stream to PATH",
    )


def _build_obs(args: argparse.Namespace, command: str) -> Observability | None:
    """An Observability pipeline when ``--obs-out`` was given, else None."""
    if not getattr(args, "obs_out", None):
        return None
    obs = Observability(exporters=[JsonlExporter(args.obs_out)])
    obs.meta(command=command, argv={
        k: v for k, v in vars(args).items()
        if k not in ("func", "raw_argv") and v is not None
    })
    return obs


def _finish_obs(obs: Observability | None, args: argparse.Namespace) -> None:
    if obs is None:
        return
    obs.close()
    if getattr(args, "obs_out", None):
        print(f"observability events appended to {args.obs_out}")


def _provenance(argv: list[str]) -> str:
    """``provenance: <HEAD sha>[-dirty] · <command>``; dirty = the package
    source differs from HEAD; ``unknown`` outside a git checkout."""
    def git(*command: str) -> str:
        done = subprocess.run(["git", *command], cwd=Path(__file__).parent,
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    dirty = "-dirty" if git("status", "--porcelain", "--", ".") else ""
    return f"provenance: {sha}{dirty} · python -m repro {' '.join(argv)}"


def _check(name: str, experiment: Experiment, table: ExperimentTable,
           at_registry_config: bool) -> int:
    """Print one line per shape claim; return how many FAILED."""
    failed = 0
    for claim in experiment.expectations:
        if claim.committed and not at_registry_config:
            verdict = "skipped (needs the registry config)"
        elif claim.holds(table):
            verdict = "ok"
        elif claim.not_reproduced:
            verdict = f"not reproduced ({claim.not_reproduced})"
        else:
            verdict = "FAILED"
            failed += 1
        print(f"check [{name}] {claim.name}: {verdict}")
    return failed


def cmd_figures(args: argparse.Namespace) -> int:
    requested = args.name or ["all"]
    names = list(EXPERIMENTS) if "all" in requested else list(requested)
    # Validate every requested name before doing any work: rejecting
    # mid-loop would leave earlier figures already run and printed.
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown figure {', '.join(map(repr, unknown))}; "
              f"choose from {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.algorithm == "anyk":
        if args.check:
            print("error: --check evaluates the paper's operators; "
                  "drop --algorithm anyk", file=sys.stderr)
            return 2
        if "all" in requested:
            # Only the operator-comparison figures have an any-k leg.
            names = [n for n in names if EXPERIMENTS[n].anyk]
    overrides = {
        key: value
        for key, value in (("scale", args.scale), ("num_seeds", args.seeds))
        if value is not None
    }
    obs = _build_obs(args, "figures")
    provenance = _provenance(args.raw_argv) if args.out else None
    failed = 0
    for name in names:
        experiment = EXPERIMENTS[name]
        config = replace(experiment.config, algorithm=args.algorithm, **overrides)
        table = experiment.run(config)
        if obs is not None:
            obs.event("figure", figure=name, table=table.to_dict())
        print()
        print(table.render())
        if args.check:
            failed += _check(name, experiment, table, config == experiment.config)
        if args.chart:
            numeric = [
                h for h in table.headers[1:]
                if any(isinstance(v, (int, float)) for v in table.column(h))
            ]
            if numeric:
                print()
                print(table.chart(table.headers[0], numeric[0]))
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{experiment.out_stem}.{args.format}"
            table.save(path)
            if args.format == "txt":
                with path.open("a") as handle:
                    handle.write(provenance + "\n")
    _finish_obs(obs, args)
    if failed:
        print(f"error: {failed} shape claim(s) FAILED", file=sys.stderr)
    return 1 if failed else 0


def _run_planned(args: argparse.Namespace, instance, obs) -> int:
    """``run --algorithm auto``: let the planner choose, print its cost
    table."""
    import time

    from repro.service.query import QuerySpec

    spec = QuerySpec(
        relations=(instance.left, instance.right),
        k=instance.k,
        scoring=instance.scoring,
        operator=args.operator,
        algorithm="auto",
    )
    resolved = spec.resolve(obs=obs)
    print(resolved.decision.table())
    print()
    started = time.perf_counter()
    operator = resolved.build_operator(obs=obs)
    results = operator.top_k(instance.k)
    elapsed = time.perf_counter() - started
    print(f"plan         : {resolved.plan_summary()}")
    print(f"instance     : L={len(instance.left)} O={len(instance.right)} "
          f"K={instance.k}")
    print(f"top scores   : {[round(r.score, 4) for r in results]}")
    print(f"pulls        : {operator.pulls}")
    print(f"time         : total={elapsed:.4f}s "
          f"(planning {resolved.decision.planning_seconds:.4f}s)")
    _finish_obs(obs, args)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        params = _workload(args)
    except ReproError as exc:
        return _fail(exc)
    # The workload file owns the whole execution shape when given.
    algorithm = params.algorithm
    if algorithm != "anyk" and args.operator not in OPERATORS:
        return _unknown_operator(args.operator)
    operator = ANYK_OPERATOR if algorithm == "anyk" else args.operator
    instance = lineitem_orders_instance(params)
    obs = _build_obs(args, "run")
    if algorithm == "auto":
        try:
            return _run_planned(args, instance, obs)
        except ReproError as exc:
            return _fail(exc)
    result = run_operator(operator, instance, obs=obs)
    stats = result.stats
    print(f"operator     : {operator}")
    print(f"instance     : L={len(instance.left)} O={len(instance.right)} K={instance.k}")
    print(f"top scores   : {[round(s, 4) for s in result.scores]}")
    print(f"depths       : left={stats.depths.left} right={stats.depths.right} "
          f"sum={stats.sum_depths}")
    print(f"time         : io={stats.timing.io:.4f}s bound={stats.timing.bound:.4f}s "
          f"total={stats.timing.total:.4f}s")
    print(f"sim. I/O cost: {stats.io_cost:,.0f}")
    _finish_obs(obs, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        params = _workload(args)
    except ReproError as exc:
        return _fail(exc)
    instance = lineitem_orders_instance(params)
    obs = _build_obs(args, "compare")
    results = run_comparison(instance, sorted(OPERATORS), obs=obs)
    table = ExperimentTable(
        title=f"Operator comparison (e={params.e}, c={params.c}, "
              f"z={params.z}, K={params.k})",
        headers=["operator", "left", "right", "sumDepths", "total_time"],
    )
    for name, result in results.items():
        table.add_row(
            name,
            result.stats.depths.left,
            result.stats.depths.right,
            result.sum_depths,
            result.stats.timing.total,
        )
    print(table.render())
    _finish_obs(obs, args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one operator fully instrumented and print what it did."""
    if args.operator not in OPERATORS:
        return _unknown_operator(args.operator)
    try:
        params = _workload(args)
    except ReproError as exc:
        return _fail(exc)
    instance = lineitem_orders_instance(params)
    exporters = [JsonlExporter(args.obs_out)] if args.obs_out else []
    obs = Observability(exporters=exporters)
    obs.meta(command="trace", operator=args.operator)
    trace = BoundTrace(obs=obs if args.pulls else None)
    result = run_operator(
        args.operator, instance,
        obs=obs, operator_kwargs={"trace": trace},
    )
    print(f"operator : {args.operator}")
    print(f"instance : L={len(instance.left)} O={len(instance.right)} "
          f"K={instance.k}")
    print()
    print("bound evolution")
    print(trace.summary())
    print()
    print(obs.summary())
    stats = result.stats
    print()
    print(f"sumDepths={stats.sum_depths} results={stats.results} "
          f"capped={result.capped}")
    _finish_obs(obs, args)
    return 0


def _serve_cache(args: argparse.Namespace, obs):
    """A shared-dir-backed ResultCache for single-server serve, or None.

    None lets :class:`QueryService` build its plain in-memory cache from
    ``cache_capacity``/``cache_ttl`` as before.
    """
    if args.shared_cache_dir is None or args.cache_capacity < 1:
        return None
    from repro.service import ResultCache

    return ResultCache(
        capacity=args.cache_capacity, ttl=args.cache_ttl,
        shared_dir=args.shared_cache_dir, obs=obs,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the concurrent query service over shared synthetic relations."""
    from repro.data.tpch import generate_tpch
    from repro.service import QueryService, RankJoinServer

    try:
        params = _workload(args)
    except ReproError as exc:
        return _fail(exc)
    algorithm = params.algorithm
    obs = _build_obs(args, "serve") or Observability()
    quotas = None
    if args.tenant_rate > 0:
        from repro.service import TenantQuotas

        quotas = TenantQuotas(rate=args.tenant_rate, burst=args.tenant_burst)
    tables = generate_tpch(params.tpch_config(), seed=params.seed)
    relations = {
        "lineitem": tables["lineitem"].to_relation("orderkey"),
        "orders": tables["orders"].to_relation("orderkey"),
    }
    chaos = None
    if args.chaos_error_rate > 0 or args.chaos_delay_rate > 0:
        from repro.resilience import RequestChaos

        chaos = RequestChaos(
            seed=args.chaos_seed,
            error_rate=args.chaos_error_rate,
            delay_rate=args.chaos_delay_rate,
        )
    if args.workers > 1:
        from repro.service import ServeFleet

        if chaos is not None:
            print("note: request chaos applies to single-server mode only; "
                  "ignoring --chaos-* with --workers > 1", file=sys.stderr)
        try:
            server = ServeFleet(
                relations,
                workers=args.workers,
                host=args.host,
                port=args.port,
                quotas=quotas,
                shared_cache_dir=args.shared_cache_dir,
                service_kwargs={
                    "policy": args.policy,
                    "max_live": args.max_sessions,
                    "quantum": args.quantum,
                    "cache_capacity": args.cache_capacity,
                    "cache_ttl": args.cache_ttl,
                    "default_max_pulls": args.max_pulls,
                },
                server_kwargs={"default_algorithm": algorithm},
                obs=obs,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            service = QueryService(
                policy=args.policy,
                max_live=args.max_sessions,
                quantum=args.quantum,
                cache=_serve_cache(args, obs),
                cache_capacity=args.cache_capacity,
                cache_ttl=args.cache_ttl,
                default_max_pulls=args.max_pulls,
                quotas=quotas,
                obs=obs,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        server = RankJoinServer(
            service, relations, host=args.host, port=args.port,
            default_algorithm=algorithm, chaos=chaos,
        )
    sizes = ", ".join(f"{name}={len(rel)}" for name, rel in relations.items())
    print(f"relations loaded: {sizes}", flush=True)

    # Announce the bound address as soon as the socket listens (the port
    # may be ephemeral); clients and the CI smoke job key off this line.
    import threading

    def announce() -> None:
        server.ready.wait()
        print(f"serving on {server.host}:{server.port}", flush=True)

    threading.Thread(target=announce, daemon=True).start()
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    except Exception as exc:  # the scheduler driver died; run() tore down
        print(f"error: server died: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("server stopped", flush=True)
    _finish_obs(obs if getattr(args, "obs_out", None) else None, args)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape a running server's metrics endpoint (Prometheus text)."""
    from repro.service import ServiceClient

    try:
        with ServiceClient(args.host, args.port, timeout=5.0) as client:
            text = client.metrics()
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a running server's stats endpoint."""
    from repro.service import run_top

    return run_top(
        args.host, args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos suite: seeded request faults, bit-identity verification."""
    from repro.resilience import SEED_WORKLOADS, render_report, run_chaos_suite

    unknown = [w for w in args.workloads if w not in SEED_WORKLOADS]
    if unknown:
        return _fail(f"unknown workloads {unknown}; "
                     f"choose from {sorted(SEED_WORKLOADS)}")
    cases = run_chaos_suite(
        seed=args.seed,
        workloads=tuple(args.workloads),
        operator=args.operator,
    )
    print(render_report(cases))
    return 0 if all(case.ok for case in cases) else 1


def cmd_info(args: argparse.Namespace) -> int:
    from repro import __version__

    print(f"repro {__version__} — SIGMOD 2009 rank join reproduction")
    print(f"operators : {', '.join(sorted(OPERATORS))}")
    print(f"figures   : {', '.join(EXPERIMENTS)}")
    print("kernels   : python; numpy from the smallest batch below")
    for op, cells in sorted(kernels.dispatch_thresholds().items()):
        size = cells["numpy"]
        print(f"  {op:<22} {'never' if size >= NEVER else size}")
    print("defaults  : e=2 c=.5 z=.5 K=10 (the paper's Table 2)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate evaluation figures")
    p_fig.add_argument("name", nargs="*", default=["all"],
                       help="experiment names (2, 10-15, skew, ablation-*, "
                            "ext-*; see `repro info`) or 'all'")
    p_fig.add_argument("--scale", type=float, default=None,
                       help="data scale (default: each experiment's registry config)")
    p_fig.add_argument("--seeds", type=int, default=None,
                       help="instances averaged per point (default: registry config)")
    p_fig.add_argument("--check", action="store_true",
                       help="evaluate each experiment's shape claims under its "
                            "table; exit 1 if one FAILED")
    p_fig.add_argument("--out", help="directory to save tables into, under the "
                                     "names benchmarks/results/ holds")
    p_fig.add_argument("--format", choices=["txt", "csv", "json"], default="txt")
    p_fig.add_argument("--chart", action="store_true",
                       help="also print an ASCII chart of the first series")
    p_fig.add_argument("--algorithm", default="pbrj",
                       choices=["pbrj", "anyk"],
                       help="evaluation core for the operator-comparison "
                            "figures (anyk swaps in the any-k leg)")
    _add_obs_args(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_run = sub.add_parser("run", help="run one operator on a workload")
    p_run.add_argument("operator", nargs="?", default="FRPA",
                       help="PBRJ operator name (ignored with --algorithm anyk)")
    p_run.add_argument("--algorithm", default="pbrj",
                       help="evaluation core: pbrj (default), anyk, or auto "
                            "(the cost-based planner chooses the core and "
                            "the operator and prints its candidate table)")
    _add_workload_args(p_run)
    _add_obs_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run every operator on a workload")
    _add_workload_args(p_cmp)
    _add_obs_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_trace = sub.add_parser(
        "trace", help="run one operator with spans, metrics, and bound trace"
    )
    p_trace.add_argument("operator")
    _add_workload_args(p_trace)
    _add_obs_args(p_trace)
    p_trace.add_argument(
        "--pulls", action="store_true",
        help="also stream one bound_trace event per pull to --obs-out",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="start the concurrent top-K query service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--policy", default="round-robin",
                         choices=["round-robin", "deadline", "bound-gap"],
                         help="scheduling policy")
    p_serve.add_argument("--max-sessions", type=int, default=16,
                         help="admission-control bound on live sessions")
    p_serve.add_argument("--quantum", type=int, default=64,
                         help="pulls per scheduling step")
    p_serve.add_argument("--max-pulls", type=int, default=None,
                         help="default per-session pull budget")
    p_serve.add_argument("--cache-capacity", type=int, default=128,
                         help="result cache entries (0 disables caching)")
    p_serve.add_argument("--cache-ttl", type=float, default=None,
                         help="result cache TTL in seconds")
    p_serve.add_argument("--algorithm", default="pbrj",
                         help="default evaluation core for submitted "
                              "queries: pbrj (default), anyk, or auto (the "
                              "planner chooses per query)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="server worker processes (1 = single server; "
                              "N>1 boots a fleet behind one front-end)")
    p_serve.add_argument("--tenant-rate", type=float, default=0.0,
                         help="per-tenant admitted submits per second "
                              "(0 disables quotas)")
    p_serve.add_argument("--tenant-burst", type=float, default=20.0,
                         help="per-tenant admission burst capacity")
    p_serve.add_argument("--shared-cache-dir", default=None,
                         help="cross-process result-cache directory "
                              "(fleet default: a private temp dir)")
    p_serve.add_argument("--chaos-seed", type=int, default=0,
                         help="request-chaos RNG seed")
    p_serve.add_argument("--chaos-error-rate", type=float, default=0.0,
                         help="inject retryable errors on this fraction "
                              "of submit/poll requests")
    p_serve.add_argument("--chaos-delay-rate", type=float, default=0.0,
                         help="delay this fraction of submit/poll requests")
    _add_workload_args(p_serve)
    _add_obs_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_metrics = sub.add_parser(
        "metrics", help="scrape a running server's Prometheus-format metrics"
    )
    p_metrics.add_argument("--host", default="127.0.0.1")
    p_metrics.add_argument("--port", type=int, required=True,
                           help="port of the running repro serve instance")
    p_metrics.set_defaults(func=cmd_metrics)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a running server"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, required=True,
                       help="port of the running repro serve instance")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between polls")
    p_top.add_argument("--iterations", type=int, default=None,
                       help="stop after N redraws (default: run until ^C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append screens instead of clearing (logs, CI)")
    p_top.set_defaults(func=cmd_top)

    p_chaos = sub.add_parser(
        "chaos",
        help="stream seed workloads under seeded request faults; "
             "verify bit-identity",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="request-chaos RNG seed")
    p_chaos.add_argument("--workloads", nargs="+",
                         default=["tpch", "zipf", "uniform", "anticorrelated"],
                         help="seed workloads to run")
    p_chaos.add_argument("--operator", default="FRPA",
                         help="operator every case runs")
    p_chaos.set_defaults(func=cmd_chaos)

    p_info = sub.add_parser("info", help="library inventory")
    p_info.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    args.raw_argv = list(sys.argv[1:] if argv is None else argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
