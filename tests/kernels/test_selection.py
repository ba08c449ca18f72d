"""Kernel selection is the routing table and nothing else: no query, engine
or CLI flag carries a kernel, and running a query never changes the table."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.data.workload import random_instance
from repro.exec import ExecConfig, ShardedRankJoin
from repro.obs.metrics import MetricRegistry
from repro.service import QuerySpec

from tests.conftest import KERNEL_TABLES, kernel_table

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _instance():
    return random_instance(
        n_left=60, n_right=60, e_left=2, e_right=2,
        num_keys=10, k=3, seed=7,
    )


class TestSetBackend:
    """Setting the shipped ("auto") table routes the bulk ops by size."""

    def test_auto_routes_by_batch_size(self):
        metrics = MetricRegistry()
        kernels.observe(metrics)
        try:
            with kernel_table("auto"):
                kernels.cover_corner_scores([(0.5, 0.5)])
                bulk = [(i / 70000, 1 - i / 70000) for i in range(50_000)]
                kernels.cover_corner_scores(bulk)
        finally:
            kernels.unobserve()
        calls = {kernel: metrics.value(
            "kernel_calls_total", kernel=kernel, fn="cover_corner_scores",
        ) for kernel in ("python", "numpy")}
        assert calls == {"python": 1, "numpy": 1}


class TestExecConfig:
    def test_kernel_field_validated(self):
        # The config carries no kernel.
        with pytest.raises(TypeError):
            ExecConfig(kernel="python")


class TestSelectionDoesNotLeak:
    """Running a query leaves the process-wide table untouched."""

    @pytest.mark.parametrize("active", KERNEL_TABLES)
    def test_queries_and_engines_leave_selection_alone(self, active):
        instance = _instance()
        with kernel_table(active):
            table = kernels.dispatch_thresholds()
            for algorithm in ("pbrj", "anyk"):
                spec = QuerySpec(
                    relations=(instance.left, instance.right), k=3,
                    algorithm=algorithm,
                )
                spec.build_operator().top_k(3)
                assert kernels.dispatch_thresholds() == table
            config = ExecConfig(shards=2, backend="serial")
            with ShardedRankJoin(instance, "FRPA", config=config) as engine:
                engine.top_k(3)
            assert kernels.dispatch_thresholds() == table

    def test_query_spec_has_no_kernel_field(self):
        instance = _instance()
        with pytest.raises(TypeError):
            QuerySpec(
                relations=(instance.left, instance.right), k=3, kernel="python"
            )


class TestCli:
    def test_retired_numba_flag_exits_2_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "FRPA", "--kernel", "numba"],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --kernel numba" in proc.stderr
        assert "Traceback" not in proc.stderr
