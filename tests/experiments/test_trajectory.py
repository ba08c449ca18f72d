"""``benchmarks/results/trajectory.jsonl``: one parent-vs-change row per PR
and workload, appended by ``scripts/bench_pairs.py --record``.

Parent and change of a row ran alternately in one session on one machine,
so the regression check below is within a row, never across rows.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_no_row_records_a_regression_past_its_bound():
    specs = {metric["name"]: metric for metric in DECLARED["end_to_end"]}
    workloads = {workload["name"] for workload in DECLARED["workloads"]}
    lines = (ROOT / "benchmarks/results/trajectory.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert row["workload"] in workloads
        assert row["parent_sha"] and row["change_sha"] and row["pairs"] >= 1
        for name, metric in row["metrics"].items():
            if name not in specs:  # a per-layer row (--trace 1): no bound
                continue
            parent, change = metric["parent"][1], metric["change"][1]
            lower = specs[name]["better"] == "lower"
            worse = change - parent if lower else parent - change
            assert worse <= specs[name]["bound"] * abs(parent), (
                row["change_sha"], row["workload"], name, parent, change,
            )


FAKE_HARNESS = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "ttk_p50_norm": {"value": BASE + seed}, "qps_norm": {"value": 10.0 - BASE}}}))
"""


def test_record_appends_one_row_per_workload(tmp_path):
    declared = {
        "command": [sys.executable, "harness.py"], "run_seconds": 1,
        "workloads": [{"name": "cold_fr2"}],
        "end_to_end": [m for m in DECLARED["end_to_end"]
                       if m["name"] in ("ttk_p50_norm", "qps_norm")],
    }
    for side, base in (("parent", 2.0), ("change", 1.0)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(declared))
        (tmp_path / side / "harness.py").write_text(
            FAKE_HARNESS.replace("BASE", str(base))
        )
    record = tmp_path / "trajectory.jsonl"
    record.write_text('{"an earlier": "row"}\n')
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts/bench_pairs.py"),
         str(tmp_path / "parent"), str(tmp_path / "change"),
         "--pairs", "3", "--seed0", "5", "--record", str(record)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    earlier, row = map(json.loads, record.read_text().splitlines())
    assert earlier == {"an earlier": "row"}
    assert (row["workload"], row["pairs"], row["seed0"], row["seconds"]) == (
        "cold_fr2", 3, 5, 1)
    assert row["parent_sha"] and row["change_sha"]
    assert row["metrics"] == {
        "ttk_p50_norm": {"parent": [7.5, 8.0, 8.5], "change": [6.5, 7.0, 7.5],
                         "wins": 3},
        "qps_norm": {"parent": [8.0, 8.0, 8.0], "change": [9.0, 9.0, 9.0],
                     "wins": 3},
    }
