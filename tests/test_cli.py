"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.kernels.dispatch import NEVER
from repro.obs import read_events, reconstruct_timing


class TestInfo:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "FRPA" in out
        assert "repro" in out

    def test_info_prints_the_thresholds(self, capsys):
        from repro import kernels

        kernels.set_thresholds({"cross_product_max": {"numpy": NEVER}})
        try:
            assert main(["info"]) == 0
        finally:
            kernels.set_thresholds({})
        rows = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }
        assert rows == {"cover_corner_scores": "12", "cross_product_max": "never"}


class TestRun:
    def test_run_operator(self, capsys):
        assert main(["run", "FRPA", "--scale", "0.0003", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "top scores" in out
        assert "sumDepths" in out or "depths" in out

    def test_unknown_operator(self, capsys):
        assert main(["run", "NOPE", "--scale", "0.0003"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown operator 'NOPE'")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_unknown_operator_is_refused_under_auto_too(self, capsys):
        # The planner would have run FRPA in its place, exit 0.
        assert main([
            "run", "NOPE", "--algorithm", "auto", "--scale", "0.0003",
        ]) == 2
        assert capsys.readouterr().err.startswith("error: unknown operator 'NOPE'")

    def test_obs_out_writes_event_stream(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main([
            "run", "FRPA", "--scale", "0.0003", "--k", "3",
            "--obs-out", str(path),
        ]) == 0
        assert str(path) in capsys.readouterr().out
        events = read_events(path)
        types = {e["type"] for e in events}
        assert {"meta", "event", "span", "metric"} <= types
        meta = next(e for e in events if e["type"] == "meta")
        assert meta["command"] == "run"
        run = next(e for e in events if e.get("name") == "run")
        assert run["operator"] == "FRPA"
        # The stream reconstructs the printed Figure 2(b) breakdown.
        rebuilt = reconstruct_timing(events, op="FRPA")
        assert rebuilt["total"] == pytest.approx(run["timing"]["total"])
        assert rebuilt["io"] == pytest.approx(run["timing"]["io"])


class TestCompare:
    def test_compare_all(self, capsys):
        assert main(["compare", "--scale", "0.0003", "--k", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("HRJN*", "PBRJ_FR^RR", "FRPA", "a-FRPA"):
            assert name in out


class TestWorkloadFile:
    """--workload error handling: nonzero exit + one-line error, no traceback."""

    def test_run_with_valid_workload_file(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, "k": 3, "e": 2}))
        assert main(["run", "FRPA", "--workload", str(path)]) == 0
        assert "top scores" in capsys.readouterr().out

    def test_workload_file_overrides_flags(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, "k": 2}))
        # The file wins over the (conflicting) --k flag.
        assert main(["run", "FRPA", "--workload", str(path), "--k", "9"]) == 0
        out = capsys.readouterr().out
        assert "top scores" in out and "K=2" in out

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_missing_workload_file(self, command, tmp_path, capsys):
        argv = [command, "--workload", str(tmp_path / "missing.json")]
        if command == "run":
            argv.insert(1, "FRPA")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read workload file")
        assert len(captured.err.strip().splitlines()) == 1  # no traceback
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_malformed_workload_file(self, command, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        argv = [command, "--workload", str(path)]
        if command == "run":
            argv.insert(1, "FRPA")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "not valid JSON" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, "kk": 3}))
        assert main(["run", "FRPA", "--workload", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown keys" in err and "'kk'" in err

    def test_non_numeric_values_rejected(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": "big"}))
        assert main(["run", "FRPA", "--workload", str(path)]) == 2
        err = capsys.readouterr().err
        assert "must be a number" in err


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "11", "--scale", "0.0003", "--seeds", "1"]) == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "99", "--scale", "0.0003"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown figure '99'")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_invalid_name_rejected_before_any_work(self, capsys):
        # One bad name in a batch aborts the whole request up front —
        # the valid figure must NOT have been generated first.
        assert main(["figures", "11", "99", "--scale", "0.0003"]) == 2
        captured = capsys.readouterr()
        assert "unknown figure '99'" in captured.err
        assert "Figure 11" not in captured.out

    def test_check_passes_on_figure_11(self, capsys):
        assert main([
            "figures", "11", "--scale", "0.0003", "--seeds", "1", "--check",
        ]) == 0
        assert "check [11] sumDepths varies by < 10 % across L0: ok" in (
            capsys.readouterr().out
        )

    def test_check_exits_1_and_names_the_failed_claim(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.experiments import EXPERIMENTS, Claim

        broken = Claim("a claim made to fail", lambda table: False)
        monkeypatch.setitem(EXPERIMENTS, "11", replace(
            EXPERIMENTS["11"], expectations=(broken,) + EXPERIMENTS["11"].expectations,
        ))
        assert main([
            "figures", "11", "--scale", "0.0003", "--seeds", "1", "--check",
        ]) == 1
        captured = capsys.readouterr()
        assert "check [11] a claim made to fail: FAILED" in captured.out
        assert ": ok" in captured.out  # the others were still evaluated
        assert "1 shape claim(s) FAILED" in captured.err

    def test_check_refuses_the_anyk_leg(self, capsys):
        assert main(["figures", "2", "--algorithm", "anyk", "--check"]) == 2
        assert capsys.readouterr().err.startswith("error: --check")

    def test_out_regenerates_the_committed_file_names(self, tmp_path, capsys):
        assert main([
            "figures", "2", "skew", "ablation-cover",
            "--scale", "0.0003", "--seeds", "1", "--out", str(tmp_path),
        ]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ablation_cover.txt", "figure_02.txt", "skew_sweep.txt",
        ]
        for path in tmp_path.iterdir():
            last = path.read_text().splitlines()[-1]
            assert last.startswith("provenance: ")
            assert last.endswith(f"figures 2 skew ablation-cover --scale 0.0003 "
                                 f"--seeds 1 --out {tmp_path}")

    def test_multiple_valid_names(self, capsys):
        assert main([
            "figures", "11", "12", "--scale", "0.0003", "--seeds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Figure 12" in out

    def test_save_json(self, tmp_path, capsys):
        assert main([
            "figures", "11", "--scale", "0.0003", "--seeds", "1",
            "--out", str(tmp_path), "--format", "json",
        ]) == 0
        saved = list(tmp_path.glob("*.json"))
        assert len(saved) == 1
        payload = json.loads(saved[0].read_text())
        assert payload["headers"][0] == "L0"

    def test_save_csv(self, tmp_path, capsys):
        assert main([
            "figures", "11", "--scale", "0.0003", "--seeds", "1",
            "--out", str(tmp_path), "--format", "csv",
        ]) == 0
        saved = list(tmp_path.glob("*.csv"))
        assert len(saved) == 1
        assert saved[0].read_text().startswith("L0,")

    def test_obs_out_records_figure_tables(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main([
            "figures", "11", "--scale", "0.0003", "--seeds", "1",
            "--obs-out", str(path),
        ]) == 0
        events = read_events(path)
        figures = [e for e in events if e.get("name") == "figure"]
        assert [f["figure"] for f in figures] == ["11"]
        assert figures[0]["table"]["headers"][0] == "L0"


class TestTrace:
    def test_trace_prints_spans_and_bound_evolution(self, capsys):
        assert main(["trace", "FRPA", "--scale", "0.0003", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "bound evolution" in out
        assert "pulls:" in out
        assert "get_next" in out
        assert "pulls_total" in out
        assert "sumDepths=" in out

    def test_trace_unknown_operator(self, capsys):
        assert main(["trace", "NOPE", "--scale", "0.0003"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown operator 'NOPE'")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_trace_pulls_streams_per_pull_events(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main([
            "trace", "FRPA", "--scale", "0.0003", "--k", "3",
            "--obs-out", str(path), "--pulls",
        ]) == 0
        events = read_events(path)
        pulls = [e for e in events if e.get("name") == "bound_trace"]
        assert len(pulls) > 0
        assert [e["pull"] for e in pulls] == list(range(1, len(pulls) + 1))


class TestAlgorithm:
    """--algorithm selects the evaluation core; unknown names exit 2."""

    def test_run_with_anyk(self, capsys):
        assert main([
            "run", "--algorithm", "anyk", "--scale", "0.0003", "--k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "top scores" in out
        assert "AnyK" in out

    def test_anyk_matches_pbrj_scores(self, capsys):
        assert main(["run", "FRPA", "--scale", "0.0003", "--k", "3"]) == 0
        pbrj_out = capsys.readouterr().out
        assert main([
            "run", "--algorithm", "anyk", "--scale", "0.0003", "--k", "3",
        ]) == 0
        anyk_out = capsys.readouterr().out
        pick = lambda text: next(  # noqa: E731
            line for line in text.splitlines() if "top scores" in line
        )
        assert pick(anyk_out).split(":", 1)[1] == pick(pbrj_out).split(":", 1)[1]

    def test_unknown_algorithm_flag_exits_2(self, capsys):
        assert main([
            "run", "--algorithm", "lawler", "--scale", "0.0003",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown algorithm")
        assert "'lawler'" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_algorithm_in_workload_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, "algorithm": "lawler"}))
        assert main(["run", "FRPA", "--workload", str(path)]) == 2
        captured = capsys.readouterr()
        assert "unknown algorithm" in captured.err
        assert "'lawler'" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_workload_file_algorithm_wins(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, "k": 2, "algorithm": "anyk"}))
        assert main(["run", "FRPA", "--workload", str(path)]) == 0
        assert "AnyK" in capsys.readouterr().out

    def test_serve_rejects_unknown_algorithm(self, capsys):
        assert main(["serve", "--algorithm", "nope", "--scale", "0.0003"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_sharded_anyk_run(self, capsys):
        # ``run`` cannot shard any more: the flag is refused by argparse,
        # and the same any-k run without it still answers.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "--algorithm", "anyk", "--scale", "0.0003", "--k", "3",
                "--shards", "2",
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err
        assert main([
            "run", "--algorithm", "anyk", "--scale", "0.0003", "--k", "3",
        ]) == 0
        assert "top scores" in capsys.readouterr().out


class TestPlanAuto:
    def test_run_plan_auto(self, capsys):
        assert main([
            "run", "--algorithm", "auto", "--scale", "0.0003", "--k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "top scores" in out
        assert "planning" in out
        assert "est cost" in out  # the explainable candidate table
        assert "*" in out  # chosen-candidate marker

    def test_workload_file_auto_shards(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({
            "scale": 0.0003, "k": 3, "shards": "auto", "algorithm": "auto",
        }))
        assert main(["run", "FRPA", "--workload", str(path)]) == 2
        captured = capsys.readouterr()
        assert "unknown keys ['shards']" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        # ``auto`` is a value of ``algorithm`` alone.
        path.write_text(json.dumps({
            "scale": 0.0003, "k": 3, "algorithm": "auto",
        }))
        assert main(["run", "FRPA", "--workload", str(path)]) == 0
        out = capsys.readouterr().out
        assert "top scores" in out and "planning" in out

    def test_workload_file_invalid_shards_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        for shards in (0, 1):  # the key is gone, whatever it says
            path.write_text(json.dumps({"scale": 0.0003, "shards": shards}))
            assert main(["run", "FRPA", "--workload", str(path)]) == 2
            captured = capsys.readouterr()
            assert "unknown keys ['shards']" in captured.err
            assert len(captured.err.strip().splitlines()) == 1
            assert "Traceback" not in captured.err

    def test_workload_file_invalid_exec_backend_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        for backend in ("serial", "process"):  # the key is gone, whatever it says
            path.write_text(json.dumps(
                {"scale": 0.0003, "exec_backend": backend}
            ))
            assert main(["run", "FRPA", "--workload", str(path)]) == 2
            captured = capsys.readouterr()
            assert "unknown keys ['exec_backend']" in captured.err
            assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "FRPA", "--shards", "2", "--exec-backend", "serial"],
        ["chaos", "--backends", "serial"],
        ["chaos", "--kinds", "transient"],
        ["chaos", "--reshard"],
        ["chaos", "--stream"],
        ["run", "FRPA", "--shards", "2"],
        ["serve", "--shards", "2"],
        ["chaos", "--shards", "2"],
    ])
    def test_retired_backend_and_fault_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--kernel", "python"],
        ["run", "--plan", "auto"],
        ["serve", "--plan", "auto"],
    ])
    def test_retired_kernel_and_plan_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[1]}" in err
        assert "Traceback" not in err

    def test_workload_file_static_shards_adopted(self, tmp_path, capsys):
        # A static shard count is no longer adopted: the key is unknown,
        # and the run stops at one error line before any work.
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({
            "scale": 0.0003, "k": 3, "shards": 2,
        }))
        assert main(["run", "FRPA", "--workload", str(path)]) == 2
        captured = capsys.readouterr()
        assert "unknown keys ['shards']" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "top scores" not in captured.out

    def test_figures_anyk_leg(self, capsys):
        assert main([
            "figures", "2", "--scale", "0.0003", "--seeds", "1",
            "--algorithm", "anyk",
        ]) == 0
        assert "AnyK" in capsys.readouterr().out


class TestWorkloadKnobs:
    """Flags and workload files share one validation: a knob no generator
    or operator can run is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("command", ["run", "compare", "trace"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--k", "0", "k"),
        ("--e", "0", "e"),
        ("--c", "2", "c"),
        ("--c", "0", "c"),
        ("--scale", "-1", "scale"),
        ("--scale", "inf", "scale"),
        ("--z", "-2", "z"),
        ("--z", "nan", "z"),
        ("--seed", "-1", "seed"),
    ])
    def test_degenerate_flag_is_one_error_line(
        self, command, flag, value, field, capsys
    ):
        argv = [command, flag, value]
        if command != "compare":
            argv.insert(1, "FRPA")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be ")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_zero_shards_flag_is_one_error_line(self, capsys):
        # ``--shards`` is no knob any more: argparse refuses it before the
        # shared validation runs, so no ``shards must be`` line appears.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "FRPA", "--shards", "0", "--scale", "0.0003"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --shards 0" in captured.err
        assert "shards must be" not in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("knob, value, field", [
        ("k", 2.5, "k"),
        ("e", 2.5, "e"),
        ("seed", 1.5, "seed"),
        ("scale", float("inf"), "scale"),
        ("z", -2, "z"),
        ("join_skew", -3, "join_skew"),
        ("z", float("nan"), "z"),
    ])
    def test_degenerate_workload_file_knob_is_one_error_line(
        self, tmp_path, knob, value, field, capsys
    ):
        # Each of these used to end in a traceback from the generator or an
        # operator (or, for NaN skew, to run silently).
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, knob: value}))
        assert main(["run", "FRPA", "--workload", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: workload file {path}: {field} must be ")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_workload_file_names_the_file_and_the_field(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({"scale": 0.0003, "k": 0}))
        assert main(["compare", "--workload", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: workload file {path}: k must be at least 1, got 0\n"
        )


class TestChaos:
    def test_unknown_workload_is_one_error_line(self, capsys):
        assert main(["chaos", "--workloads", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown workloads ['nope']")
        assert captured.err.count("\n") == 1 and not captured.out
