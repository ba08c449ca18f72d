#!/usr/bin/env python
"""CI smoke test for the live telemetry plane.

Starts ``python -m repro serve`` on an ephemeral port, runs a few
queries (FRPA, any-k, and a repeat for a cache hit), then checks the
whole exposition surface end to end:

* the ``metrics`` verb returns Prometheus text containing every core
  metric family and the SLO quantile gauges;
* the ``stats`` verb carries the SLO percentile summary;
* ``python -m repro metrics`` scrapes the same server from a separate
  process.

Exits nonzero on any failure; the CI step wraps it in a hard ``timeout``
so a hung server fails fast.

Usage: python scripts/metrics_smoke.py [--scale 0.0005]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import ServiceClient  # noqa: E402

#: Metric families every served workload must expose.
REQUIRED_FAMILIES = (
    "service_sessions_total",
    "service_session_seconds",
    "service_pulls_total",
    "service_queue_depth",
    "service_cache_hits_total",
    "slo_session_seconds",
    "pulls_total",
    "results_emitted_total",
    "anyk_dp_tuples_total",
)


def _src_path_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    return env


def start_server(scale: float) -> tuple[subprocess.Popen, str, int]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", str(scale), "--max-sessions", "8", "--quantum", "32"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_src_path_env(),
    )
    for line in process.stdout:
        print(f"[server] {line.rstrip()}")
        match = re.search(r"serving on ([\d.]+):(\d+)", line)
        if match:
            return process, match.group(1), int(match.group(2))
    raise RuntimeError(f"server exited (rc={process.wait()}) before listening")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.0005)
    args = parser.parse_args()

    process, host, port = start_server(args.scale)

    def drain():
        for line in process.stdout:
            print(f"[server] {line.rstrip()}")

    threading.Thread(target=drain, daemon=True).start()

    errors: list[str] = []
    try:
        with ServiceClient(host, port, timeout=60.0) as client:
            client.run(left="lineitem", right="orders", k=5,
                       operator="FRPA", timeout=60.0)
            client.run(left="lineitem", right="orders", k=5,
                       algorithm="anyk", timeout=60.0)
            repeat = client.run(left="lineitem", right="orders", k=5,
                                operator="FRPA", timeout=60.0)
            if not repeat["from_cache"]:
                errors.append(f"repeat query missed the cache: {repeat}")

            text = client.metrics()
            for family in REQUIRED_FAMILIES:
                if family not in text:
                    errors.append(f"metrics verb missing {family!r}")
            for quantile in ("0.5", "0.95", "0.99"):
                needle = f'slo_session_seconds{{quantile="{quantile}"}}'
                if needle not in text:
                    errors.append(f"metrics verb missing SLO gauge {needle}")

            stats = client.stats()
            slo = stats.get("slo", {})
            percentiles = slo.get("session_seconds", {})
            for key in ("p50", "p95", "p99"):
                if not percentiles.get(key):
                    errors.append(f"stats slo missing {key}: {slo}")

            # The standalone CLI scraper must see the same exposition.
            scrape = subprocess.run(
                [sys.executable, "-m", "repro", "metrics",
                 "--host", host, "--port", str(port)],
                capture_output=True, text=True, timeout=60.0,
                env=_src_path_env(),
            )
            if scrape.returncode != 0:
                errors.append(
                    f"repro metrics exited {scrape.returncode}: {scrape.stderr}"
                )
            elif "service_sessions_total" not in scrape.stdout:
                errors.append("repro metrics output lacks service counters")

            client.shutdown()
        returncode = process.wait(timeout=30.0)
    except Exception as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
        process.kill()
        returncode = -1

    if returncode != 0:
        errors.append(f"server exited with status {returncode}")

    if errors:
        print("SMOKE FAILED:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(
        f"SMOKE OK: telemetry plane live — "
        f"{len(REQUIRED_FAMILIES)} families exposed, "
        f"SLO p95={percentiles['p95'] * 1e3:.1f}ms, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
