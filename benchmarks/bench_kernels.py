"""Kernel backend micro/macro benchmarks: python vs numpy vs auto dispatch.

Times the batch kernels that dominate FR-family bound computation and
writes two records under ``benchmarks/results/``:

``BENCH_kernels.json``
    * ``micro`` — per-op wall-clock (dominance test, corner scores, cover
      carve) on synthetic unit vectors;
    * ``bound_refresh`` — the FR*/aFR bound hot path at e=3 over n-row
      seen columns: a full partial-score recompute on both sides, the
      seen×seen cross-product max, and the capped-cover corner max (the
      aFR shape, |CR| ≤ 500).  This is the work a prepared operand
      (:mod:`repro.core.scoring`) re-does when its column's stamp
      invalidates — the bulk shape; FR*'s own small sets are list-native.

``BENCH_dispatch.json``
    The 6 two-tier kernel ops (of 8) swept over batch sizes n ∈ {4, 16,
    64, 256, 1k, 10k, 50k}, timing size-aware ``auto`` dispatch against every pinned
    backend.  Acceptance: at every swept size the backend auto routes
    to must stay within 5 % (plus a 5 µs timer-noise floor) of the
    *best* pinned backend — i.e. per-call routing captures the
    python/numpy crossover instead of paying numpy's fixed overhead on
    four-row batches.  Super-linear ops cap their ladder (recorded as
    ``capped_at`` — no silent truncation).  Inputs come from
    :mod:`repro.kernels.dispatch`'s own synthetic generators so the
    sweep exercises exactly the shapes calibration measured.

Acceptance for the original record: numpy must beat python on the bound
refresh.  The full run uses n = 50,000 rows; ``--quick`` (CI) shrinks
the inputs and the sweep ladder but keeps the same invariants.

Run directly: ``python benchmarks/bench_kernels.py [--quick]`` — or via
pytest, where ``REPRO_BENCH_KERNELS_QUICK=1`` selects the quick shape.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import kernels  # noqa: E402
from repro.kernels import PointSet, use_backend  # noqa: E402
from repro.kernels.dispatch import ARG_BUILDERS, PROBE_KWARGS  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

DIMENSION = 3  # the paper's mid-size e; covers stay non-trivial

FULL_PARAMS = {
    "n": 50_000,       # seen-column rows for the bound refresh
    "micro_n": 20_000,  # rows for linear-scan micro ops
    "carve_n": 400,
    "repeats": 5,
}
QUICK_PARAMS = {
    "n": 8_000,
    "micro_n": 4_000,
    "carve_n": 150,
    "repeats": 3,
}

#: aFR cover budget (max_cr_size default) for the capped-cover segment.
COVER_CAP = 500

BACKENDS = ("python", "numpy")


def _vectors(n: int, seed: int) -> list[tuple[float, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(DIMENSION)) for _ in range(n)]


def _time(fn, repeats: int) -> float:
    """Best-of-N wall clock (seconds) — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _speedup(timings: dict) -> float:
    return timings["python"] / timings["numpy"] if timings["numpy"] else 1.0


def bench_micro(params: dict) -> dict:
    n = params["micro_n"]
    repeats = params["repeats"]
    points = _vectors(n, seed=11)
    ps = PointSet(DIMENSION, points)
    probe = tuple([0.5] * DIMENSION)
    weights = (0.7, 1.0, 1.3)
    carve_obs = _vectors(params["carve_n"], seed=17)

    cases = {
        "dominates_any": lambda: kernels.dominates_any(ps, probe),
        "cover_corner_scores": lambda: kernels.cover_corner_scores(ps, weights),
        "cover_carve": lambda: kernels.cover_carve(
            [kernels.ones(DIMENSION)], carve_obs, skyline_mode=True
        ),
    }
    out = {}
    for name, fn in cases.items():
        timings = {}
        for backend in BACKENDS:
            with use_backend(backend):
                timings[backend] = _time(fn, repeats)
        out[name] = {**timings, "speedup": _speedup(timings)}
    return out


def bench_bound_refresh(params: dict) -> dict:
    """The FR*/aFR prepared-operand rebuild at e=3, n seen rows per side."""
    n = params["n"]
    repeats = params["repeats"]
    left = PointSet(DIMENSION, _vectors(n, seed=23))
    right = PointSet(DIMENSION, _vectors(n, seed=29))
    # A budget-capped cover, as aFR maintains after grid degradation.
    cover = PointSet(DIMENSION, _vectors(COVER_CAP, seed=31))
    weights = (1.0, 0.9, 1.1)

    def refresh() -> float:
        # Full recompute of both sides' partial scores (stamp invalidated),
        # then the three FR cross-product cases — the Figure 3 structure.
        seen_l = kernels.cover_corner_scores(left, weights)
        seen_r = kernels.cover_corner_scores(right, weights)
        cr_max = max(kernels.cover_corner_scores(cover, weights))
        t_both = 2 * cr_max
        t_left = cr_max + kernels.cross_product_max([0.0], seen_r)
        t_right = kernels.cross_product_max(seen_l, [0.0]) + cr_max
        return max(t_both, t_left, t_right)

    timings = {}
    values = {}
    for backend in BACKENDS:
        with use_backend(backend):
            values[backend] = refresh()  # warm + capture for the identity check
            timings[backend] = _time(refresh, repeats)
    assert values["python"] == values["numpy"], (
        f"bound value diverges across backends: {values}"
    )
    return {
        "e": DIMENSION,
        "n": n,
        "cover_cap": COVER_CAP,
        "bound_value": values["python"],
        **timings,
        "speedup": _speedup(timings),
    }


# ----------------------------------------------------------------------
# Dispatch sweep: auto vs every pinned backend, per op, per batch size
# ----------------------------------------------------------------------
DISPATCH_SIZES = (4, 16, 64, 256, 1024, 10_000, 50_000)
DISPATCH_QUICK_SIZES = (4, 64, 1024)

#: Ladder caps for ops whose reference tier is super-linear; anything
#: above the cap is dropped from the sweep and recorded as ``capped_at``.
DISPATCH_SIZE_CAPS = {
    "cover_carve": 1024,     # O(|cover|·|observed|) carve cascades
}

#: Auto must stay within 5 % of the best pinned backend, with a 5 µs
#: absolute floor: near a crossover both tiers run in single-digit µs
#: and the gap between them is below timer resolution.
DISPATCH_REL_TOL = 1.05
DISPATCH_ABS_TOL = 5e-6


#: The two pinned tiers plus the dispatcher that routes between them.
DISPATCH_BACKENDS = ["python", "numpy", "auto"]


def _reps_for(size: int) -> int:
    # Loop-and-divide: sub-µs calls at n=4 need ~64 reps to clear timer
    # noise; bulk calls are long enough to time individually.
    return max(1, min(64, 2048 // max(size, 1)))


def _time_backends(fn, args: tuple, backends, reps: int, rounds: int) -> dict:
    """Per-backend best seconds/call, measured *interleaved*.

    Timing each backend in its own block lets GC pauses and frequency
    drift land on one backend only — at the 200 µs scale that shows up
    as a spurious ±25 % between bit-identical implementations.  Round-
    robin rounds with GC paused give every backend the same conditions;
    the min discards one-sided noise.
    """
    best = {b: float("inf") for b in backends}
    gc.disable()
    try:
        for r in range(rounds):
            # Rotate the order each round: turbo decay within a round
            # would otherwise consistently penalise the last backend.
            order = backends[r % len(backends):] + backends[: r % len(backends)]
            for backend in order:
                with use_backend(backend):
                    started = time.perf_counter()
                    for _ in range(reps):
                        fn(*args)
                    elapsed = (time.perf_counter() - started) / reps
                if elapsed < best[backend]:
                    best[backend] = elapsed
    finally:
        gc.enable()
    return best


def bench_dispatch(params: dict, quick: bool) -> dict:
    """Sweep every kernel op across batch sizes under auto + pinned."""
    # Resolve thresholds deliberately (generous budget) so the sweep
    # measures routing quality, not a half-finished import-time
    # calibration.
    thresholds = kernels.calibrate_thresholds(budget=2.0 if not quick else 0.5)
    backends = DISPATCH_BACKENDS
    sizes = DISPATCH_QUICK_SIZES if quick else DISPATCH_SIZES
    # One extra rotation per backend so every backend leads a round.
    rounds = params["repeats"] + len(backends)

    ops: dict[str, dict] = {}
    # The ops with a probe are the ops with two tiers to route between.
    for op, builder in ARG_BUILDERS.items():
        fn = functools.partial(getattr(kernels, op), **PROBE_KWARGS.get(op, {}))
        cap = DISPATCH_SIZE_CAPS.get(op)
        swept = [n for n in sizes if cap is None or n <= cap]
        timings: dict[str, list[float]] = {b: [] for b in backends}
        chosen: list[str] = []
        for size in swept:
            args = builder(size)
            reps = _reps_for(size)
            for backend in backends:
                with use_backend(backend):
                    fn(*args)  # warm outside the timers
            best = _time_backends(fn, args, backends, reps, rounds)
            for backend in backends:
                timings[backend].append(best[backend])
            chosen.append(_route_choice(op, args))
        pinned = [b for b in backends if b != "auto"]
        ops[op] = {
            "sizes": swept,
            "capped_at": cap,
            "timings": timings,
            "auto_route": chosen,
            "auto_vs_best": [
                timings["auto"][i] / min(timings[b][i] for b in pinned)
                for i in range(len(swept))
            ],
            # Routing quality on the pinned series: the chosen backend's
            # pinned time vs the best pinned time.  This is the 5 %
            # acceptance metric — both sides come from the same timing
            # conditions, so same-impl timer noise cancels out of the
            # comparison (``auto_vs_best`` compares different series and
            # carries that noise; it is recorded for transparency only).
            "route_vs_best": [
                timings[chosen[i]][i] / min(timings[b][i] for b in pinned)
                for i in range(len(swept))
            ],
        }
    return {
        "sizes": list(sizes),
        "backends": backends,
        "thresholds": thresholds,
        "routes": kernels.dispatch_routes(),
        "tolerance": {
            "relative": DISPATCH_REL_TOL,
            "absolute_seconds": DISPATCH_ABS_TOL,
        },
        "ops": ops,
    }


def _route_choice(op: str, args: tuple) -> str:
    """The backend the auto route table picks for this exact call."""
    from repro.kernels.dispatch import SIZERS, _first_len

    n = SIZERS.get(op, _first_len)(args)
    for min_size, backend in kernels.dispatch_routes()[op]:
        if n >= min_size:
            return backend
    return "python"


def check_dispatch(record: dict) -> list[str]:
    """Auto's routing within 5 % (+5 µs) of the best pinned backend.

    Evaluated on the *pinned* series: the backend auto routed to must
    time within tolerance of the best pinned backend at that size.
    Comparing auto's own wall clock against a different timing series
    would re-test the machine's timer noise, not the routing — on a
    shared box two runs of the *identical* implementation differ by
    ±15 % at the 200 µs scale (the raw gap is still recorded as
    ``auto_vs_best``).  A misroute — auto picking a backend that is
    genuinely slower at that size — fails loudly either way.
    """
    errors = []
    pinned = [b for b in record["backends"] if b != "auto"]
    for op, row in record["ops"].items():
        for i, size in enumerate(row["sizes"]):
            best = min(row["timings"][b][i] for b in pinned)
            routed = row["timings"][row["auto_route"][i]][i]
            if routed > best * DISPATCH_REL_TOL + DISPATCH_ABS_TOL:
                errors.append(
                    f"auto dispatch misroutes {op} at n={size}: "
                    f"chose {row['auto_route'][i]}={routed * 1e6:.2f}µs, "
                    f"best pinned={best * 1e6:.2f}µs"
                )
    # The tentpole's headline: small batches of the early-exit ops must
    # no longer regress against the pure-Python reference.  Calls here
    # are in the single-µs range, so the absolute floor covers noise
    # and auto's own wall clock (dispatch overhead included) is held to
    # the bound directly.
    for op in ("dominates_any", "cover_carve"):
        row = record["ops"][op]
        for i, size in enumerate(row["sizes"]):
            if size > 64:
                continue
            python = row["timings"]["python"][i]
            auto = row["timings"]["auto"][i]
            if auto > python * DISPATCH_REL_TOL + DISPATCH_ABS_TOL:
                errors.append(
                    f"small-batch regression: {op} at n={size} "
                    f"auto={auto * 1e6:.2f}µs python={python * 1e6:.2f}µs"
                )
    return errors


def report_dispatch(record: dict) -> None:
    print()
    print(f"dispatch sweep (sizes={record['sizes']})")
    for op, row in record["ops"].items():
        worst_route = max(row["route_vs_best"])
        worst_raw = max(row["auto_vs_best"])
        cap = f" (capped at {row['capped_at']})" if row["capped_at"] else ""
        print(
            f"  {op:22s}: route/best worst {worst_route:5.2f}x "
            f"(raw auto {worst_raw:4.2f}x){cap}"
        )


def run_bench(quick: bool) -> tuple[dict, dict]:
    """(BENCH_kernels record, BENCH_dispatch record)."""
    params = QUICK_PARAMS if quick else FULL_PARAMS
    mode = "quick" if quick else "full"
    kernels_record = {
        "mode": mode,
        "dimension": DIMENSION,
        "params": params,
        "backends": list(kernels.available_backends()),
        "micro": bench_micro(params),
        "bound_refresh": bench_bound_refresh(params),
    }
    dispatch_record = {
        "mode": mode,
        "dimension": DIMENSION,
        **bench_dispatch(params, quick),
    }
    return kernels_record, dispatch_record


def check(record: dict) -> list[str]:
    errors = []
    refresh = record["bound_refresh"]
    if refresh["speedup"] <= 1.0:
        errors.append(
            f"numpy does not beat python on the bound refresh "
            f"(n={refresh['n']}, e={refresh['e']}): "
            f"python={refresh['python']:.6f}s numpy={refresh['numpy']:.6f}s"
        )
    return errors


def report(record: dict) -> None:
    print()
    print(f"kernel benchmarks ({record['mode']}, e={record['dimension']})")
    for name, row in record["micro"].items():
        print(
            f"  {name:22s}: python={row['python'] * 1e3:8.3f}ms "
            f"numpy={row['numpy'] * 1e3:8.3f}ms  ({row['speedup']:.1f}x)"
        )
    refresh = record["bound_refresh"]
    print(
        f"  bound refresh (n={refresh['n']}): "
        f"python={refresh['python'] * 1e3:.3f}ms "
        f"numpy={refresh['numpy'] * 1e3:.3f}ms  ({refresh['speedup']:.1f}x)"
    )


def write_record(record: dict, name: str = "BENCH_kernels.json") -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=2) + "\n")


def test_kernel_backends():
    if "numpy" not in kernels.available_backends():
        import pytest

        pytest.skip("numpy backend unavailable")
    quick = bool(os.environ.get("REPRO_BENCH_KERNELS_QUICK"))
    record, dispatch_record = run_bench(quick)
    report(record)
    report_dispatch(dispatch_record)
    write_record(record)
    write_record(dispatch_record, "BENCH_dispatch.json")
    errors = check(record) + check_dispatch(dispatch_record)
    assert not errors, errors


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs for CI freshness runs")
    args = parser.parse_args()
    if "numpy" not in kernels.available_backends():
        print("BENCH SKIPPED: numpy backend unavailable")
        sys.exit(0)
    bench_record, dispatch_bench_record = run_bench(args.quick)
    report(bench_record)
    report_dispatch(dispatch_bench_record)
    write_record(bench_record)
    write_record(dispatch_bench_record, "BENCH_dispatch.json")
    failures = check(bench_record) + check_dispatch(dispatch_bench_record)
    if failures:
        print("BENCH FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("BENCH OK")
