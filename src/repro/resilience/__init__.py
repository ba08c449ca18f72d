"""Fault injection and recovery for the service/exec stack.

The paper's robustness is algorithmic (instance-optimal pull depths);
this subsystem adds *infrastructure* robustness on top, exploiting the
same property that makes operators suspendable — the resumable
``try_next`` protocol — to make them **recoverable**:

* :mod:`repro.resilience.faults` — a seeded, deterministic fault
  injector (:class:`FaultPlan` / :class:`FaultSpec`: worker-kill at pull
  N, pipe drop, delayed reply, transient :class:`~repro.errors.
  ShardError`) hooked into the execution backends and the server loop
  behind a no-op default;
* :mod:`repro.resilience.retry` — exponential backoff with seeded
  jitter (:class:`RetryPolicy`);
* :mod:`repro.resilience.supervisor` — :class:`ResilientBackend`:
  transparent retry, process-worker respawn with state replay, and
  graceful backend degradation (process → serial), reported
  through ``repro.obs`` counters and the ``degraded`` flag;
* :mod:`repro.resilience.chaos` — the chaos harness behind
  ``python -m repro chaos``: seed workloads under seeded fault schedules
  must stay bit-identical to the fault-free run.

Enable recovery on any sharded run via
:class:`~repro.exec.ExecConfig`::

    from repro.exec import ExecConfig, ShardedRankJoin
    from repro.resilience import FaultPlan, ResilienceConfig

    config = ExecConfig(
        shards=4, backend="process",
        resilience=ResilienceConfig(plan=FaultPlan.single("worker-kill")),
    )
    with ShardedRankJoin(instance, "FRPA", config=config) as engine:
        engine.top_k(10)          # same answer, one respawn along the way
"""

from repro.resilience.chaos import (
    CHAOS_KINDS,
    SEED_WORKLOADS,
    ChaosCase,
    chaos_plan,
    chaos_run,
    emission_view,
    reference_run,
    render_report,
    reshard_chaos_run,
    run_chaos_suite,
    seed_instance,
    stream_chaos_run,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    LOST_KINDS,
    NO_FAULTS,
    TRANSIENT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectingWorker,
    RequestChaos,
)
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.resilience.supervisor import (
    ADVANCE_RECOVERY_CAP,
    ResilienceConfig,
    ResilientBackend,
)

__all__ = [
    "ADVANCE_RECOVERY_CAP",
    "CHAOS_KINDS",
    "ChaosCase",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectingWorker",
    "LOST_KINDS",
    "NO_FAULTS",
    "RequestChaos",
    "ResilienceConfig",
    "ResilientBackend",
    "RetryPolicy",
    "SEED_WORKLOADS",
    "TRANSIENT_KINDS",
    "call_with_retry",
    "chaos_plan",
    "chaos_run",
    "emission_view",
    "reference_run",
    "render_report",
    "reshard_chaos_run",
    "run_chaos_suite",
    "stream_chaos_run",
    "seed_instance",
]
