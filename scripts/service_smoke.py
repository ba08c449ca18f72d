#!/usr/bin/env python
"""CI smoke test for the query service.

Starts ``python -m repro serve`` on an ephemeral port, fires concurrent
client queries at it, checks every one completes with a sane answer,
and asserts a clean shutdown. Exits nonzero on any failure; the CI step
wraps it in a hard ``timeout`` so a hung server fails fast.

Usage: python scripts/service_smoke.py [--clients 20] [--scale 0.0005]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import ServiceClient  # noqa: E402


def start_server(scale: float) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", str(scale), "--max-sessions", "8", "--quantum", "32"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    for line in process.stdout:
        print(f"[server] {line.rstrip()}")
        match = re.search(r"serving on ([\d.]+):(\d+)", line)
        if match:
            return process, match.group(1), int(match.group(2))
    raise RuntimeError(f"server exited (rc={process.wait()}) before listening")


def hostile_frames_refused(host: str, port: int) -> list[str]:
    """Send a wrong-typed submit and an over-long line over raw sockets.

    Each must come back as exactly one ``ok: false`` line; the caller's
    normal traffic afterwards proves the server shrugged them off.
    """
    frames = {
        "wrong-typed submit": json.dumps({
            "verb": "submit", "left": "lineitem", "right": "orders",
            "k": 3, "deadline": "soon",
        }).encode() + b"\n",
        "over-long line": b'{"verb": "stats", "pad": "' + b"x" * 70000 + b'"}\n',
    }
    errors = []
    for name, frame in frames.items():
        try:
            with socket.create_connection((host, port), timeout=30.0) as sock, \
                    sock.makefile("rwb") as stream:
                stream.write(frame)
                stream.flush()
                reply = json.loads(stream.readline())
            if reply.get("ok") is not False or not reply.get("error"):
                errors.append(f"{name}: not refused: {reply}")
        except (OSError, ValueError) as exc:
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--clients", type=int, default=20)
    parser.add_argument("--scale", type=float, default=0.0005)
    args = parser.parse_args()

    process, host, port = start_server(args.scale)
    errors: list[str] = []

    # Drain remaining server output in the background so it cannot block.
    def drain():
        for line in process.stdout:
            print(f"[server] {line.rstrip()}")
            if "Traceback" in line:
                errors.append("server printed a traceback")

    threading.Thread(target=drain, daemon=True).start()

    finals: dict[int, dict] = {}
    errors += hostile_frames_refused(host, port)

    def query(index: int) -> None:
        try:
            with ServiceClient(host, port, timeout=60.0) as client:
                finals[index] = client.run(
                    left="lineitem", right="orders",
                    k=3 + index % 5, operator="FRPA", timeout=60.0,
                )
        except Exception as exc:
            errors.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=query, args=(i,)) for i in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)

    try:
        with ServiceClient(host, port) as client:
            # A sequential repeat of an already-served query must be a
            # zero-pull cache hit.
            repeat = client.run(left="lineitem", right="orders", k=3,
                                operator="FRPA", timeout=60.0)
            if not repeat["from_cache"] or repeat["pulls"] != 0:
                errors.append(f"repeat query was not a cache hit: {repeat}")
            stats = client.stats()
            client.shutdown()
        returncode = process.wait(timeout=30.0)
    except Exception as exc:
        errors.append(f"shutdown: {type(exc).__name__}: {exc}")
        process.kill()
        returncode = -1

    for index, final in sorted(finals.items()):
        if final["state"] != "DONE" or not final["scores"]:
            errors.append(f"client {index}: bad final snapshot {final}")
    if len(finals) != args.clients:
        errors.append(f"only {len(finals)}/{args.clients} clients finished")
    if returncode != 0:
        errors.append(f"server exited with status {returncode}")

    if errors:
        print("SMOKE FAILED:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(
        f"SMOKE OK: {len(finals)} concurrent queries served, "
        f"{stats['scheduler']['pulls']} pulls, "
        f"cache hit rate {stats['cache']['hit_rate']:.2f}, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
