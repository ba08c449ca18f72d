"""Tests for the ``repro top`` dashboard: pure renderer + live loop."""

import io

from tests.service.test_server import running_server

from repro.service import ServiceClient
from repro.service.top import render_dashboard, run_top

STATS = {
    "scheduler": {
        "live": 1, "queued": 2, "finished": {"DONE": 3}, "pulls": 640,
    },
    "slo": {
        "session_seconds": {"p50": 0.002, "p95": 0.01, "p99": 1.5},
        "sessions_finished": 3,
        "cache_hit_ratio": 0.5,
    },
    "cache": {"entries": 2, "capacity": 128, "hits": 3, "misses": 3},
    "sessions": [
        {"session": "q-1", "state": "RUNNING", "label": "hrjn k=10",
         "results": 4, "k": 10, "pulls": 320, "plan": "pbrj/FRPA"},
    ],
}


class TestRenderDashboard:
    def test_renders_all_sections(self):
        screen = render_dashboard(STATS)
        assert "live=1 queued=2 finished=3" in screen
        assert "p50=2.0ms" in screen
        assert "p99=1.50s" in screen
        assert "hit-rate=50%" in screen
        assert "q-1" in screen and "degraded" not in screen
        assert "SHARD" not in screen and "imbalance" not in screen

    def test_empty_stats_do_not_crash(self):
        screen = render_dashboard({})
        assert "no sessions in flight" in screen

    def test_plan_column_rendered_per_session(self):
        screen = render_dashboard(STATS)
        assert "PLAN" in screen
        assert "pbrj/FRPA" in screen

    def test_missing_plan_renders_placeholder(self):
        stats = dict(STATS)
        stats["sessions"] = [
            {"session": "q-2", "state": "RUNNING", "label": "x",
             "results": 0, "k": 5, "pulls": 0},
        ]
        screen = render_dashboard(stats)
        assert "?" in screen

    def test_draining_flag_in_title(self):
        screen = render_dashboard({"draining": True})
        assert "[DRAINING]" in screen


class TestRunTop:
    def test_two_iterations_against_live_server(self):
        with running_server() as server:
            with ServiceClient(server.host, server.port) as client:
                client.run(left="lineitem", right="orders", k=5)
            out = io.StringIO()
            code = run_top(
                server.host, server.port,
                interval=0.01, iterations=2, out=out, clear=False,
                sleep=lambda _s: None,
            )
        assert code == 0
        text = out.getvalue()
        assert text.count("repro top") == 2
        assert "latency" in text

    def test_clear_sequence_emitted(self):
        with running_server() as server:
            out = io.StringIO()
            run_top(server.host, server.port, iterations=1, out=out,
                    sleep=lambda _s: None)
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_unreachable_server_exits_2(self):
        out = io.StringIO()
        code = run_top("127.0.0.1", 1, iterations=1, out=out,
                       sleep=lambda _s: None)
        assert code == 2
