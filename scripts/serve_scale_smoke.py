#!/usr/bin/env python
"""CI smoke test for the streaming serve fleet.

Boots ``python -m repro serve --workers 2`` as a subprocess, drives a
scaled-down soak (50 concurrent streaming sessions by default) through
the front-end, and checks the streaming contract end to end: strictly
sequential event indexes, the streamed sequence equal to the terminal
snapshot, identical answers across sessions of the same query, no
session left outstanding by clients that submit and hang up, an unpinned
repeat answered by the front-end itself (an ``fe:`` session from its
cache), fleet stats reporting every worker alive, a fleet-level cache hit
ratio above 0 and, for a worker with shared-tier hits, its own ratio, and
a clean shutdown.  Exits nonzero on any failure; the CI step wraps it in
a hard ``timeout``.

Usage: python scripts/serve_scale_smoke.py [--sessions 50] [--workers 2]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import ServiceClient  # noqa: E402
from service_smoke import hostile_frames_refused  # noqa: E402 - sibling script


def start_fleet(scale: float, workers: int) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", str(scale), "--workers", str(workers),
         "--quantum", "32"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    for line in process.stdout:
        print(f"[fleet] {line.rstrip()}")
        match = re.search(r"serving on ([\d.]+):(\d+)", line)
        if match:
            return process, match.group(1), int(match.group(2))
    raise RuntimeError(f"fleet exited (rc={process.wait()}) before listening")


def hang_ups_settle(host: str, port: int, clients: int = 3) -> list[str]:
    """Clients that submit three queries each and hang up unstreamed: once
    every worker reports nothing live or queued, the front-end must count
    nothing outstanding either."""
    for index in range(clients):
        with ServiceClient(host, port) as client:
            for j in range(3):  # distinct weights: no cache hits
                client.submit(left="lineitem", right="orders", k=5,
                              weights=[[1.0, 2.0 + 3 * index + j], [1.0, 1.0]])
    deadline = time.monotonic() + 60.0
    with ServiceClient(host, port) as client:
        while True:
            stats = client.stats()
            busy = stats["scheduler"]["live"] + stats["scheduler"]["queued"]
            outstanding = stats["fleet"]["outstanding"]
            if not busy and not any(outstanding.values()):
                return []
            if time.monotonic() > deadline:
                return [f"after {clients} hang-ups: outstanding {outstanding} "
                        f"with {busy} sessions live or queued"]
            time.sleep(0.1)


def repeat_answered_by_the_front_end(host: str, port: int) -> list[str]:
    """One query submitted twice, unpinned: the front-end answers the
    second itself, from the answer it relayed for the first."""
    query = dict(left="lineitem", right="orders", k=4,
                 weights=[[1.0, 1.5], [1.0, 1.0]])  # no other step asks it
    with ServiceClient(host, port) as client:
        client.run(**query)
        reply = client.request({"verb": "submit", **query})
    if reply.get("from_cache") is True and reply["session"].startswith("fe:"):
        return []
    return [f"an unpinned repeat reached a worker: {reply['session']} "
            f"from_cache={reply.get('from_cache')}"]


def hit_ratios_reported(stats: dict) -> list[str]:
    """A worker that served shared-tier hits must report the ratio its
    SLO block computes from them, not ``null``."""
    return [
        f"worker {name}: {worker['cache']['shared_hits']} shared-tier hits "
        f"but slo.cache_hit_ratio null"
        for name, worker in sorted(stats["workers"].items())
        if (worker.get("cache") or {}).get("shared_hits")
        and worker["slo"]["cache_hit_ratio"] is None
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sessions", type=int, default=50)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--threads", type=int, default=10)
    parser.add_argument("--scale", type=float, default=0.0005)
    args = parser.parse_args()

    process, host, port = start_fleet(args.scale, args.workers)
    errors: list[str] = []

    def drain():
        for line in process.stdout:
            print(f"[fleet] {line.rstrip()}")
            if "Traceback" in line:
                errors.append("fleet printed a traceback")

    threading.Thread(target=drain, daemon=True).start()

    errors += hostile_frames_refused(host, port)
    by_k: dict[int, list] = {}
    lock = threading.Lock()
    per_thread = args.sessions // args.threads

    def soak(slot: int) -> None:
        try:
            with ServiceClient(host, port, timeout=120.0) as client:
                for j in range(per_thread):
                    index = slot * per_thread + j
                    k = 2 + index % 8
                    sid = client.submit(left="lineitem", right="orders",
                                        k=k, operator="FRPA")
                    scores, indexes, done = [], [], None
                    for event in client.stream(sid):
                        if event["event"] == "result":
                            scores.append(event["score"])
                            indexes.append(event["index"])
                        else:
                            done = event
                    if indexes != list(range(len(scores))):
                        errors.append(f"{sid}: indexes {indexes}")
                    elif done is None or done["state"] != "DONE":
                        errors.append(f"{sid}: bad terminal event")
                    elif done["scores"] != scores:
                        errors.append(f"{sid}: streamed != snapshot")
                    elif len(scores) != k:
                        errors.append(f"{sid}: {len(scores)}/{k} results")
                    with lock:
                        by_k.setdefault(k, []).append(scores)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"soak {slot}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=soak, args=(slot,))
               for slot in range(args.threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)

    # Every session of the same query streamed the identical sequence,
    # and shorter-k sequences are prefixes of longer-k ones.
    for k, sequences in sorted(by_k.items()):
        if any(seq != sequences[0] for seq in sequences):
            errors.append(f"k={k}: sessions disagree")
    longest = max(by_k) if by_k else 0
    for k, sequences in sorted(by_k.items()):
        if sequences and by_k.get(longest) \
                and by_k[longest][0][:k] != sequences[0]:
            errors.append(f"k={k} is not a prefix of k={longest}")

    errors += hang_ups_settle(host, port)
    errors += repeat_answered_by_the_front_end(host, port)
    try:
        with ServiceClient(host, port) as client:
            stats = client.stats()
            if stats["fleet"]["alive"] != args.workers:
                errors.append(f"fleet degraded: {stats['fleet']}")
            if not (stats["slo"]["cache_hit_ratio"] or 0.0) > 0.0:
                errors.append("fleet slo.cache_hit_ratio is "
                              f"{stats['slo']['cache_hit_ratio']}, not above 0")
            errors += hit_ratios_reported(stats)
            client.shutdown()
        returncode = process.wait(timeout=60.0)
    except Exception as exc:  # noqa: BLE001 - reported below
        errors.append(f"shutdown: {type(exc).__name__}: {exc}")
        process.kill()
        returncode = -1

    total = sum(len(sequences) for sequences in by_k.values())
    if total != per_thread * args.threads:
        errors.append(f"only {total}/{per_thread * args.threads} sessions ran")
    if returncode != 0:
        errors.append(f"fleet exited with status {returncode}")

    if errors:
        print("SMOKE FAILED:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(
        f"SMOKE OK: {total} streaming sessions over {args.workers} workers, "
        f"cache hit rate {stats['cache']['hit_rate']:.2f}, "
        f"{stats['cache']['shared_hits']} shared-tier hits, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
