"""Backend selection: process-wide only — precedence, env var, config,
CLI, and the guarantee that running a query never re-pins the process."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.config import ReproConfig
from repro.data.workload import random_instance
from repro.exec import ExecConfig, ShardedRankJoin
from repro.obs.metrics import MetricRegistry
from repro.service import QuerySpec

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide selection as it found it."""
    previous = kernels.kernel_name()
    yield
    kernels.set_backend(previous)


class TestSetBackend:
    def test_explicit_python(self):
        assert kernels.set_backend("python") == "python"
        assert kernels.kernel_name() == "python"

    def test_explicit_numpy(self):
        assert kernels.set_backend("numpy") == "numpy"

    def test_auto_is_the_dispatcher(self):
        # "auto" is per-call dispatch, not a numpy alias: the active
        # kernel keeps the name "auto" and routes by batch size.
        assert kernels.set_backend("auto") == "auto"
        assert kernels.kernel_name() == "auto"
        routes = kernels.dispatch_routes()
        assert set(routes) == set(kernels.KERNEL_OPS)
        for entries in routes.values():
            assert entries[-1] == (0, "python")  # the loop anchors each op

    def test_auto_routes_by_batch_size(self):
        metrics = MetricRegistry()
        kernels.observe(metrics)
        try:
            with kernels.use_backend("auto"):
                kernels.cover_corner_scores([(0.5, 0.5)])
                bulk = [(i / 70000, 1 - i / 70000) for i in range(50_000)]
                kernels.cover_corner_scores(bulk)
        finally:
            kernels.unobserve()
        calls = {kernel: metrics.value(
            "kernel_calls_total", kernel=kernel, fn="cover_corner_scores",
        ) for kernel in ("python", "numpy")}
        assert calls == {"python": 1, "numpy": 1}

    def test_none_means_auto(self):
        assert kernels.set_backend(None) == kernels.set_backend("auto")

    def test_name_normalized(self):
        assert kernels.set_backend("  PYTHON ") == "python"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("numba")  # retired tier
        assert kernels.kernel_name() != "numba"

    def test_available_backends(self):
        assert kernels.available_backends() == ("numpy", "python")
        assert kernels.BACKEND_CHOICES == ("auto", "numpy", "python")


class TestUseBackend:
    def test_context_restores_previous(self):
        kernels.set_backend("python")
        with kernels.use_backend("auto"):
            pass
        assert kernels.kernel_name() == "python"

    def test_context_restores_on_error(self):
        kernels.set_backend("python")
        with pytest.raises(RuntimeError):
            with kernels.use_backend("auto"):
                raise RuntimeError("boom")
        assert kernels.kernel_name() == "python"


class TestEnvVar:
    """REPRO_KERNEL is read at import time — test in a child interpreter."""

    def _probe(self, env_value):
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
        if env_value is not None:
            env["REPRO_KERNEL"] = env_value
        return subprocess.run(
            [sys.executable, "-W", "always", "-c",
             "from repro import kernels; print(kernels.kernel_name())"],
            capture_output=True, text=True, env=env, check=True,
        )

    def test_env_selects_python(self):
        assert self._probe("python").stdout.strip() == "python"

    def test_env_selects_auto_dispatch(self):
        assert self._probe("auto").stdout.strip() == "auto"

    def test_invalid_env_warns_and_falls_back_to_auto(self):
        proc = self._probe("no-such-backend")
        assert proc.stdout.strip() == "auto"
        assert "REPRO_KERNEL" in proc.stderr  # RuntimeWarning mentions the var

    def test_retired_numba_env_warns_once_and_falls_back_to_auto(self):
        proc = self._probe("numba")
        assert proc.stdout.strip() == "auto"
        assert proc.stderr.count("RuntimeWarning") == 1
        assert "REPRO_KERNEL='numba'" in proc.stderr


class TestReproConfig:
    def test_apply_sets_backend(self):
        assert ReproConfig(kernel="python").apply() == "python"
        assert kernels.kernel_name() == "python"

    def test_invalid_kernel_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            ReproConfig(kernel="fortran")

    def test_from_env_invalid_is_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "bogus")
        assert ReproConfig.from_env().kernel == "auto"

    def test_current_reflects_active(self):
        kernels.set_backend("python")
        assert ReproConfig.current().kernel == "python"


def _instance():
    return random_instance(
        n_left=60, n_right=60, e_left=2, e_right=2,
        num_keys=10, k=3, seed=7,
    )


class TestExecConfig:
    def test_kernel_field_validated(self):
        # The config carries no kernel; the name is validated where it
        # is selected.
        with pytest.raises(TypeError):
            ExecConfig(kernel="python")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend("fortran"):
                pass

    def test_kernel_default_inherits(self):
        kernels.set_backend("numpy")
        config = ExecConfig(shards=2, backend="serial")
        with ShardedRankJoin(_instance(), "FRPA", config=config) as engine:
            engine.top_k(3)
            assert engine.snapshot()["config"]["kernel"] == "numpy"

    def test_engine_applies_kernel(self):
        config = ExecConfig(shards=2, backend="serial")
        kernels.set_backend("numpy")
        with kernels.use_backend("python"):
            with ShardedRankJoin(_instance(), "FRPA", config=config) as engine:
                engine.top_k(3)
                assert kernels.kernel_name() == "python"
                assert engine.snapshot()["config"]["kernel"] == "python"
        assert kernels.kernel_name() == "numpy"


class TestSelectionDoesNotLeak:
    """Running a query leaves the process-wide selection untouched."""

    @pytest.mark.parametrize("active", ["auto", "numpy", "python"])
    def test_queries_and_engines_leave_selection_alone(self, active):
        instance = _instance()
        kernels.set_backend(active)
        routes = kernels.dispatch_routes()

        def unchanged():
            return (kernels.kernel_name() == active
                    and kernels.dispatch_routes() == routes)

        for shards in (1, 2):
            spec = QuerySpec(
                relations=(instance.left, instance.right), k=3,
                shards=shards,
            )
            spec.build_operator().top_k(3)
            assert unchanged()
        config = ExecConfig(shards=2, backend="serial")
        with ShardedRankJoin(instance, "FRPA", config=config) as engine:
            engine.top_k(3)
        assert unchanged()

    def test_query_spec_has_no_kernel_field(self):
        instance = _instance()
        with pytest.raises(TypeError):
            QuerySpec(
                relations=(instance.left, instance.right), k=3, kernel="python"
            )


class TestCli:
    def test_kernel_flag_applies(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "FRPA", "--kernel", "python",
            "--k", "3", "--scale", "0.0002",
        ]) == 0
        out = capsys.readouterr().out
        assert "kernel=python" in out
        assert kernels.kernel_name() == "python"

    def test_retired_numba_flag_exits_2_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "FRPA", "--kernel", "numba"],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "invalid choice: 'numba'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_info_lists_backends(self, capsys):
        from repro.__main__ import main

        with kernels.use_backend("auto"):  # the route table prints under auto
            assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "kernels   : numpy, python" in out
        # The printed route table names only the two tiers.
        routed = {
            entry.split(":")[1].strip(",")
            for line in out.splitlines() if line.startswith("  ")
            for entry in line.split()[1:]
        }
        assert routed == {"numpy", "python"}
