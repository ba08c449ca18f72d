"""The chaos harness: seeded fault schedules, bit-identity verification.

Runs the standard seed workloads through the sharded engine under a
randomized-but-seeded fault schedule and checks the *resilience
invariant*:

    final top-K, emission order, and scores are bit-identical to the
    fault-free run, and at least one injected fault actually fired.

The fault-free reference is the serial-backend sharded run with the same
shard count (shard count fixes the canonical emission order; backend and
faults must not).  Exposed through ``python -m repro chaos`` and the
pytest suite in ``tests/resilience/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    random_instance,
)
from repro.exec import BACKENDS, ExecConfig, ShardedRankJoin, result_identity
from repro.obs import Observability
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import ResilienceConfig

#: The four seed workloads every correctness invariant runs over (the
#: same matrix as ``tests/exec/conftest.SEED_WORKLOADS``).
WORKLOAD_BUILDERS = {
    "tpch": lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0)
    ),
    "zipf": lambda: lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005,
                       join_skew=0.9, seed=1)
    ),
    "uniform": lambda: random_instance(
        n_left=400, n_right=400, e_left=2, e_right=2,
        num_keys=40, k=12, seed=3,
    ),
    "anticorrelated": lambda: anti_correlated_instance(
        n_left=300, n_right=300, num_keys=30, k=10, seed=5,
    ),
}

SEED_WORKLOADS = tuple(sorted(WORKLOAD_BUILDERS))

#: Fault kinds the chaos suite schedules by default.  ``delay`` is
#: excluded from the default matrix: it cannot affect results, only
#: latency, and the suite optimizes for fault-path coverage per second.
CHAOS_KINDS = ("worker-kill", "pipe-drop", "transient")

#: Fast backoff for chaos runs — correctness is timing-independent.
CHAOS_RETRY = RetryPolicy(max_attempts=6, base_delay=0.001, max_delay=0.01)


@lru_cache(maxsize=None)
def seed_instance(name: str):
    """Build (and memoize) one of the named seed workload instances."""
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {SEED_WORKLOADS}"
        ) from None
    return builder()


def chaos_plan(kind: str, shards: int, seed: int) -> FaultPlan:
    """A seeded per-case schedule: one ``kind`` fault on every shard.

    Shard 0 fires at pull depth 0 (guaranteed: every live shard advances
    in round one), the rest at seeded shallow depths so most fire before
    small top-K runs drain.
    """
    rng = random.Random((seed, kind, shards).__hash__())
    specs = [FaultSpec(kind, 0, 0)]
    for shard in range(1, shards):
        specs.append(FaultSpec(kind, shard, rng.randrange(0, 48)))
    return FaultPlan(tuple(specs))


def reference_run(instance, shards: int, operator: str = "FRPA") -> list:
    """The fault-free serial-backend sharded run (the bit-identity oracle)."""
    config = ExecConfig(shards=shards, backend="serial")
    with ShardedRankJoin(instance, operator, config=config) as engine:
        return engine.top_k(instance.k)


def emission_view(results) -> list[tuple]:
    """Comparable projection preserving emission order: (score, identity)."""
    return [(r.score, result_identity(r)) for r in results]


@dataclass(frozen=True)
class ChaosCase:
    """Outcome of one chaos run: did faults fire, did results survive."""

    workload: str
    shards: int
    backend: str
    kind: str
    matched: bool
    fired: int
    respawns: int
    retries: int
    degraded: bool
    #: Completed live re-shard migrations (reshard cases require exactly 1).
    reshards: int = 0
    #: Request-level injected errors ridden through (stream cases).
    injected: int = 0

    @property
    def ok(self) -> bool:
        return self.matched and self.fired > 0


def chaos_run(
    workload: str,
    shards: int,
    backend: str,
    kind: str,
    *,
    seed: int = 0,
    operator: str = "FRPA",
    plan: FaultPlan | None = None,
) -> ChaosCase:
    """Run one workload under faults and verify bit-identity.

    ``plan`` overrides the default per-case seeded schedule.
    """
    instance = seed_instance(workload)
    reference = emission_view(reference_run(instance, shards, operator))
    plan = plan if plan is not None else chaos_plan(kind, shards, seed)
    obs = Observability()
    config = ExecConfig(
        shards=shards,
        backend=backend,
        resilience=ResilienceConfig(plan=plan, retry=CHAOS_RETRY, seed=seed),
    )
    with ShardedRankJoin(instance, operator, config=config, obs=obs) as engine:
        chaotic = emission_view(engine.top_k(instance.k))
        degraded = engine.degraded
    respawns = obs.metrics.value("worker_respawns_total") or 0
    retries = sum(
        obs.metrics.value("resilience_retries_total", kind=k) or 0
        for k in ("transient", "worker-lost")
    )
    return ChaosCase(
        workload=workload,
        shards=shards,
        backend=backend,
        kind=kind,
        matched=chaotic == reference,
        fired=respawns + retries,
        respawns=respawns,
        retries=retries,
        degraded=degraded,
    )


def reshard_chaos_run(
    workload: str,
    shards: int,
    backend: str,
    kind: str,
    *,
    seed: int = 0,
    operator: str = "FRPA",
) -> ChaosCase:
    """Fire a fault DURING a live re-shard migration; verify bit-identity.

    The engine is forced to migrate almost immediately (threshold 0, one
    pull / one emitted result), and the seeded fault plan is attached as
    the *migration* resilience config — shard 0's fault fires at pull
    depth 0 of the replacement engine, i.e. while it is replaying the
    emission history mid-migration.  The case passes only if the fault
    fired, exactly one migration completed, and the final top-K is
    bit-identical (scores, identities, emission order) to the fault-free
    serial run.
    """
    from repro.planner import AdaptiveConfig, AdaptiveShardedRankJoin

    instance = seed_instance(workload)
    reference = emission_view(reference_run(instance, shards, operator))
    plan = chaos_plan(kind, shards, seed)
    obs = Observability()
    config = ExecConfig(shards=shards, backend=backend)
    adaptive = AdaptiveConfig(
        threshold=0.0,
        min_pulls=1,
        min_emitted=1,
        target_partitioner="skew",
        migration_resilience=ResilienceConfig(
            plan=plan, retry=CHAOS_RETRY, seed=seed
        ),
    )
    with AdaptiveShardedRankJoin(
        instance, operator, config=config, adaptive=adaptive, obs=obs
    ) as engine:
        chaotic = emission_view(engine.top_k(instance.k))
        degraded = engine.degraded
        reshards = engine.reshards
    respawns = obs.metrics.value("worker_respawns_total") or 0
    retries = sum(
        obs.metrics.value("resilience_retries_total", kind=k) or 0
        for k in ("transient", "worker-lost")
    )
    return ChaosCase(
        workload=workload,
        shards=shards,
        backend=backend,
        kind=f"{kind}+reshard",
        matched=chaotic == reference and reshards == 1,
        fired=respawns + retries,
        respawns=respawns,
        retries=retries,
        degraded=degraded,
        reshards=reshards,
    )


def stream_chaos_run(
    workload: str,
    shards: int,
    backend: str,
    kind: str,
    *,
    seed: int = 0,
    operator: str = "FRPA",
    error_rate: float = 0.25,
) -> ChaosCase:
    """Stream a query off a chaotic server; verify the event sequence.

    Two fault layers run at once: the seeded exec-level plan
    (worker-kill / transients inside the sharded engine, with
    respawn-replay) *and* request-level chaos intercepting the
    ``submit``/``poll``/``stream`` verbs.  The client rides both through
    the **raw** stream reader — no client-side dedup or reordering — so
    the case passes only if the *server* itself never emitted a wrong,
    duplicated, or out-of-order event: every result event's index must
    equal the strict cursor and its score must match the fault-free
    serial reference at that index, across any number of mid-stream
    reattachments.  Already-streamed prefixes must survive respawn-replay
    untouched (indexes only ever append).
    """
    import threading

    from repro.resilience.faults import RequestChaos
    from repro.service import QueryService, RankJoinServer, ServiceClient
    from repro.service.client import ServiceError

    instance = seed_instance(workload)
    reference = [
        round(r.score, 6) for r in reference_run(instance, shards, operator)
    ]
    plan = chaos_plan(kind, shards, seed)
    obs = Observability()
    service = QueryService(quantum=16, obs=obs)
    chaos = RequestChaos(
        seed=seed,
        error_rate=error_rate,
        verbs=("submit", "poll", "stream"),
        sleep=lambda _delay: None,
    )
    server = RankJoinServer(
        service,
        {"left": instance.left, "right": instance.right},
        default_shards=shards,
        resilience=ResilienceConfig(plan=plan, retry=CHAOS_RETRY, seed=seed),
        chaos=chaos,
    )
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    server.ready.wait(10.0)

    matched = True
    degraded = False
    cursor = 0
    reattach = 0
    try:
        with ServiceClient(server.host, server.port) as client:
            response = client.request({
                "verb": "submit", "left": "left", "right": "right",
                "k": instance.k, "operator": operator, "backend": backend,
            }, max_retries=16)
            sid = response["session"]
            done = None
            while done is None:
                try:
                    for event in client.stream_raw(sid, from_index=cursor):
                        if event.get("event") == "result":
                            if (
                                event["index"] != cursor
                                or cursor >= len(reference)
                                or round(event["score"], 6) != reference[cursor]
                            ):
                                matched = False
                            cursor += 1
                        elif event.get("event") == "done":
                            done = event
                except ServiceError as error:
                    if not error.retryable or reattach >= 64:
                        matched = False
                        break
                    reattach += 1
            if done is not None:
                degraded = bool(done.get("degraded"))
                if done.get("scores") != reference or cursor != len(reference):
                    matched = False
            else:
                matched = False
    finally:
        try:
            with ServiceClient(server.host, server.port) as closer:
                closer.shutdown()
        except (OSError, ConnectionError, ServiceError):  # pragma: no cover
            pass
        thread.join(timeout=10.0)

    respawns = obs.metrics.value("worker_respawns_total") or 0
    retries = sum(
        obs.metrics.value("resilience_retries_total", kind=k) or 0
        for k in ("transient", "worker-lost")
    )
    return ChaosCase(
        workload=workload,
        shards=shards,
        backend=backend,
        kind=f"{kind}+stream",
        matched=matched,
        fired=respawns + retries + chaos.injected_errors,
        respawns=respawns,
        retries=retries,
        degraded=degraded,
        injected=chaos.injected_errors,
    )


def run_chaos_suite(
    *,
    seed: int = 0,
    workloads: tuple[str, ...] = SEED_WORKLOADS,
    shards: tuple[int, ...] = (2, 4),
    backends: tuple[str, ...] = BACKENDS,
    kinds: tuple[str, ...] = CHAOS_KINDS,
    operator: str = "FRPA",
    reshard: bool = False,
    stream: bool = False,
) -> list[ChaosCase]:
    """The full chaos matrix: workload × shards × backend × fault kind.

    ``reshard=True`` appends one extra case per matrix point with the
    fault firing during a live re-shard migration (see
    :func:`reshard_chaos_run`); ``stream=True`` appends one with the
    query consumed over the server's ``stream`` verb under request-level
    chaos (see :func:`stream_chaos_run`).
    """
    cases = []
    for workload in workloads:
        for n_shards in shards:
            for backend in backends:
                for kind in kinds:
                    cases.append(
                        chaos_run(
                            workload, n_shards, backend, kind,
                            seed=seed, operator=operator,
                        )
                    )
                    if reshard:
                        cases.append(
                            reshard_chaos_run(
                                workload, n_shards, backend, kind,
                                seed=seed, operator=operator,
                            )
                        )
                    if stream:
                        cases.append(
                            stream_chaos_run(
                                workload, n_shards, backend, kind,
                                seed=seed, operator=operator,
                            )
                        )
    return cases


def render_report(cases: list[ChaosCase]) -> str:
    """A fixed-width table of the suite results."""
    header = (
        f"{'workload':<16}{'shards':>6}  {'backend':<8}{'fault':<20}"
        f"{'match':<7}{'fired':>5}{'respawns':>9}{'retries':>8}  degraded"
    )
    lines = [header, "-" * len(header)]
    for case in cases:
        lines.append(
            f"{case.workload:<16}{case.shards:>6}  {case.backend:<8}"
            f"{case.kind:<20}{'yes' if case.matched else 'NO':<7}"
            f"{case.fired:>5}{case.respawns:>9}{case.retries:>8}  "
            f"{'yes' if case.degraded else 'no'}"
        )
    passed = sum(case.ok for case in cases)
    lines.append("-" * len(header))
    lines.append(f"{passed}/{len(cases)} cases bit-identical with faults fired")
    return "\n".join(lines)
