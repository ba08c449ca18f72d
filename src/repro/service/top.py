"""``python -m repro top`` — a curses-free live terminal dashboard.

Polls a running :class:`~repro.service.server.RankJoinServer`'s ``stats``
verb and renders the live telemetry plane as plain text: SLO percentiles,
scheduler and cache state, and one line per in-flight session.  The
screen is refreshed with a single ANSI clear — no curses, so it works in
any terminal, under tee, and inside CI logs.

The renderer (:func:`render_dashboard`) is a pure function of one stats
payload, which is what the tests drive; :func:`run_top` owns the
poll-sleep-redraw loop.
"""

from __future__ import annotations

import sys
import time

from repro.service.client import ServiceClient

#: ANSI: clear screen, cursor home.
CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_ratio(value) -> str:
    return "-" if value is None else f"{value * 100:.0f}%"


def render_dashboard(stats: dict) -> str:
    """Render one ``stats`` payload as the dashboard screen (no ANSI)."""
    lines: list[str] = []
    scheduler = stats.get("scheduler", {})
    slo = stats.get("slo") or {}
    percentiles = slo.get("session_seconds") or {}

    finished = scheduler.get("finished", {})
    done = sum(finished.values()) if finished else 0
    title = "repro top — rank join service"
    if stats.get("draining"):
        title += "  [DRAINING]"
    lines.append(title)
    lines.append(
        f"sessions  live={scheduler.get('live', 0)} "
        f"queued={scheduler.get('queued', 0)} finished={done} "
        f"policy={scheduler.get('policy', '?')} "
        f"pulls={scheduler.get('pulls', 0)}"
    )
    lines.append(
        "latency   "
        f"p50={_fmt_seconds(percentiles.get('p50'))} "
        f"p95={_fmt_seconds(percentiles.get('p95'))} "
        f"p99={_fmt_seconds(percentiles.get('p99'))} "
        f"(n={slo.get('sessions_finished', 0)})"
    )
    first = slo.get("first_result_seconds") or {}
    if any(value is not None for value in first.values()):
        lines.append(
            "ttfr      "
            f"p50={_fmt_seconds(first.get('p50'))} "
            f"p95={_fmt_seconds(first.get('p95'))} "
            f"p99={_fmt_seconds(first.get('p99'))}"
        )
    fleet = stats.get("fleet")
    if fleet:
        outstanding = fleet.get("outstanding") or {}
        spread = " ".join(
            f"{name}={count}" for name, count in sorted(outstanding.items())
        )
        lines.append(
            f"fleet     workers={fleet.get('alive', 0)}"
            f"/{fleet.get('workers', 0)} {spread}"
        )
    throttled = slo.get("throttled_total")
    if throttled:
        lines.append(f"throttled {throttled} rejections (per-tenant quotas)")
    cache = stats.get("cache")
    if cache:
        lines.append(
            f"cache     entries={cache.get('entries', 0)}"
            f"/{cache.get('capacity', 0)} "
            f"hits={cache.get('hits', 0)} misses={cache.get('misses', 0)} "
            f"hit-rate={_fmt_ratio(slo.get('cache_hit_ratio'))}"
        )

    sessions = stats.get("sessions") or []
    lines.append("")
    if sessions:
        lines.append(
            f"{'SESSION':<9} {'STATE':<9} {'RESULTS':>8} {'PULLS':>9} "
            f"{'PLAN':<28} LABEL"
        )
        for session in sessions:
            lines.append(
                f"{session.get('session', '?'):<9} "
                f"{session.get('state', '?'):<9} "
                f"{session.get('results', 0):>4}/{session.get('k', 0):<3} "
                f"{session.get('pulls', 0):>9,} "
                f"{session.get('plan', '?'):<28} "
                f"{session.get('label', '')}"
            )
    else:
        lines.append("no sessions in flight")
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    *,
    interval: float = 1.0,
    iterations: int | None = None,
    out=None,
    clear: bool = True,
    sleep=time.sleep,
) -> int:
    """Poll ``stats`` and redraw until interrupted (or ``iterations``).

    Returns a process exit code: 0 on a clean run (including the server
    going away after at least one successful poll — it presumably shut
    down), 2 when the first poll cannot connect.
    """
    out = out if out is not None else sys.stdout
    drawn = 0
    while iterations is None or drawn < iterations:
        try:
            with ServiceClient(host, port, timeout=5.0) as client:
                stats = client.stats()
        except (ConnectionError, OSError) as exc:
            if drawn == 0:
                print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
                return 2
            print("server went away; exiting", file=out)
            return 0
        if clear:
            out.write(CLEAR)
        out.write(render_dashboard(stats) + "\n")
        out.flush()
        drawn += 1
        if iterations is not None and drawn >= iterations:
            break
        try:
            sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            break
    return 0
