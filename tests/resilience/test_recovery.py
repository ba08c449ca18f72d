"""Recovery machinery: retry, respawn with replay, graceful degradation."""

from __future__ import annotations

import pytest

from repro.data.workload import random_instance
from repro.errors import ShardError
from repro.exec import ExecConfig, ShardedRankJoin
from repro.obs import Observability
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    ResilientBackend,
    RetryPolicy,
)
from repro.resilience.chaos import emission_view, reference_run

FAST_RETRY = RetryPolicy(max_attempts=6, base_delay=0.0005, max_delay=0.005)


def make_instance(seed: int = 11, k: int = 10):
    return random_instance(
        n_left=240, n_right=240, e_left=2, e_right=2,
        num_keys=24, k=k, seed=seed,
    )


def faulted_run(instance, *, backend, plan, shards=2, max_respawns=3,
                degrade=True, operator="FRPA"):
    obs = Observability()
    config = ExecConfig(
        shards=shards, backend=backend,
        resilience=ResilienceConfig(
            plan=plan, retry=FAST_RETRY,
            max_respawns=max_respawns, degrade=degrade,
        ),
    )
    with ShardedRankJoin(instance, operator, config=config, obs=obs) as engine:
        results = engine.top_k(instance.k)
        return results, engine.snapshot(), obs


@pytest.mark.parametrize("backend", ["serial", "process"])
class TestRespawnReplay:
    def test_single_kill_preserves_results_and_order(self, backend):
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        results, snapshot, obs = faulted_run(
            instance, backend=backend, plan=FaultPlan.single("worker-kill"),
        )
        assert emission_view(results) == reference
        assert obs.metrics.value("worker_respawns_total") == 1
        assert not snapshot["degraded"]

    def test_kill_at_depth_replays_recorded_history(self, backend):
        # A mid-stream kill forces a replay of several recorded quanta,
        # not just a fresh start.
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        plan = FaultPlan((
            FaultSpec("worker-kill", 0, 10),
            FaultSpec("worker-kill", 1, 15),
        ))
        results, _, obs = faulted_run(instance, backend=backend, plan=plan)
        assert emission_view(results) == reference
        assert obs.metrics.value("worker_respawns_total") == 2

    def test_repeated_kills_on_one_shard(self, backend):
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        # Shallow depths: after the first respawn replays to one quantum
        # (32 pulls), the remaining kills fire back to back inside the
        # same recovery loop — three respawns even on a short run.
        plan = FaultPlan(tuple(
            FaultSpec("worker-kill", 0, depth) for depth in (0, 5, 10)
        ))
        results, _, obs = faulted_run(
            instance, backend=backend, plan=plan, max_respawns=5,
        )
        assert emission_view(results) == reference
        assert obs.metrics.value("worker_respawns_total") == 3

    def test_transient_faults_retry_in_place(self, backend):
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        plan = FaultPlan((
            FaultSpec("transient", 0, 0),
            FaultSpec("transient", 1, 30),
        ))
        results, _, obs = faulted_run(instance, backend=backend, plan=plan)
        assert emission_view(results) == reference
        assert obs.metrics.value("resilience_retries_total", kind="transient") == 2
        # Transients never cost a respawn.
        assert not obs.metrics.value("worker_respawns_total")


class TestDegradation:
    def test_process_degrades_straight_to_serial_and_finishes(self):
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        # max_respawns + 1 kills on shard 0 force the one tier drop there
        # is; the fourth fires on the serial floor, which must respawn in
        # place rather than look for a lower tier.
        plan = FaultPlan(tuple(
            FaultSpec("worker-kill", 0, depth) for depth in (0, 10, 20, 30)
        ))
        results, snapshot, obs = faulted_run(
            instance, backend="process", plan=plan, max_respawns=2,
        )
        assert emission_view(results) == reference
        assert snapshot["degraded"]
        assert snapshot["backend_tier"] == "serial"
        assert obs.metrics.value("resilience_degrades_total") == 1
        assert obs.metrics.value("worker_respawns_total") == 4

    def test_degrade_false_keeps_respawning_on_the_same_tier(self):
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        plan = FaultPlan(tuple(
            FaultSpec("worker-kill", 0, depth) for depth in (0, 5, 10, 15, 20)
        ))
        results, snapshot, obs = faulted_run(
            instance, backend="serial", plan=plan,
            max_respawns=1, degrade=False,
        )
        assert emission_view(results) == reference
        assert not snapshot["degraded"]
        assert snapshot["backend_tier"] == "serial"
        assert obs.metrics.value("worker_respawns_total") == 5

    def test_transient_storm_exhausts_retry_budget(self):
        instance = make_instance()
        storm = FaultPlan(tuple(
            FaultSpec("transient", 0, 0) for _ in range(10)
        ))
        config = ExecConfig(
            shards=2, backend="serial",
            resilience=ResilienceConfig(
                plan=storm,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0001),
            ),
        )
        engine = ShardedRankJoin(instance, "FRPA", config=config)
        with engine:
            with pytest.raises(ShardError):
                engine.top_k(instance.k)


class TestResilientBackendDirect:
    def test_no_plan_is_transparent(self):
        instance = make_instance()
        reference = emission_view(reference_run(instance, 2))
        config = ExecConfig(shards=2, backend="serial",
                            resilience=ResilienceConfig())
        with ShardedRankJoin(instance, "FRPA", config=config) as engine:
            assert emission_view(engine.top_k(instance.k)) == reference
            assert not engine.degraded
            assert engine.snapshot()["backend_tier"] == "serial"

    def test_replay_log_records_only_successful_quanta(self):
        from repro.exec.backends import make_backend
        from repro.exec.worker import ShardWorker

        instance = make_instance()
        worker = ShardWorker(0, instance, "FRPA")
        plan = FaultPlan((FaultSpec("transient", 0, 0),))
        backend = ResilientBackend(
            make_backend("serial"),
            config=ResilienceConfig(plan=plan, retry=FAST_RETRY),
            sleep=lambda _: None,
        )
        backend.start([worker])
        outcomes = backend.advance([(0, 8)])
        assert len(outcomes) == 1 and outcomes[0].pulls > 0
        # One successful quantum recorded — the failed attempt is not.
        assert backend._log[0] == [8]
        backend.advance([(0, 8)])
        assert backend._log[0] == [8, 8]
        backend.close()

    def test_respawn_counter_is_per_shard(self):
        instance = make_instance()
        plan = FaultPlan((
            FaultSpec("worker-kill", 0, 0),
            FaultSpec("worker-kill", 1, 0),
            FaultSpec("worker-kill", 1, 25),
        ))
        obs = Observability()
        config = ExecConfig(
            shards=2, backend="serial",
            resilience=ResilienceConfig(plan=plan, retry=FAST_RETRY,
                                        max_respawns=5),
        )
        with ShardedRankJoin(instance, "FRPA", config=config, obs=obs) as engine:
            engine.top_k(instance.k)
            backend = engine._backend
            assert backend.respawns == {0: 1, 1: 2}
        assert obs.metrics.value("worker_respawns_total") == 3
