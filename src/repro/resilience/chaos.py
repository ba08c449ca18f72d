"""The chaos harness: seeded request faults, bit-identity verification.

Streams each seed workload off a live server whose request layer injects
seeded transient errors, to a client that hangs up after every event, and
checks the *resilience invariant*:

    the streamed event sequence — every index, every score, the final
    top-K — is bit-identical to the fault-free run, and at least one
    injected fault actually fired.

The fault-free reference is the plain operator's top-K,
``make_operator(operator, instance).top_k(k)`` — the path
:meth:`~repro.service.query.QuerySpec.build_operator` takes, so the
streamed sequence must match it bit for bit.  Exposed through ``python -m repro chaos`` and the pytest suite in
``tests/resilience/``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from repro.core.operators import ANYK_OPERATOR, make_operator
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
    random_instance,
)
from repro.resilience.faults import RequestChaos

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


@dataclass(frozen=True)
class ChaosCase:
    """Outcome of one chaos run: did faults fire, did results survive."""

    workload: str
    operator: str
    matched: bool
    #: Request-level injected errors ridden through.
    injected: int
    #: Streams re-issued from a cursor past 0 (after a hang-up or a fault).
    resumed: int

    @property
    def ok(self) -> bool:
        return self.matched and self.injected > 0


def stream_chaos_run(
    workload: str,
    *,
    seed: int = 0,
    operator: str = "FRPA",
    error_rate: float = 0.5,
) -> ChaosCase:
    """Stream a query off a chaotic server; verify the event sequence.

    Two faults at once: request-level chaos answers ``submit`` and
    ``stream`` requests with seeded retryable errors, and the client hangs
    up after *every* result event, so each index is reached by a fresh
    ``stream`` request resuming at that cursor (K + 1 attaches, each one
    another draw for the injector — a run in which nothing fires is
    vanishingly rare, and fails as vacuous).  The client reads the **raw**
    stream — no client-side dedup or reordering — so the case passes only
    if the *server* itself never emitted a wrong, duplicated, or
    out-of-order event: every result event's index must equal the strict
    cursor and its score must match the fault-free reference at that
    index.
    """
    from repro.service import QueryService, RankJoinServer, ServiceClient
    from repro.service.client import ServiceError

    instance = seed_instance(workload)
    reference = [
        round(r.score, 6)
        for r in make_operator(operator, instance).top_k(instance.k)
    ]
    chaos = RequestChaos(
        seed=seed,
        error_rate=error_rate,
        verbs=("submit", "stream"),
        sleep=lambda _delay: None,
    )
    server = RankJoinServer(
        QueryService(quantum=16),
        {"left": instance.left, "right": instance.right},
        chaos=chaos,
    )
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    server.ready.wait(10.0)

    matched = True
    cursor = resumed = refused = 0
    try:
        with ServiceClient(server.host, server.port) as client:
            core = ({"algorithm": "anyk"} if operator == ANYK_OPERATOR
                    else {"operator": operator})
            response = client.request({
                "verb": "submit", "left": "left", "right": "right",
                "k": instance.k, **core,
            }, max_retries=32)
            sid = response["session"]
            done = None
            while done is None:
                resumed += cursor > 0
                try:
                    for event in client.stream_raw(sid, from_index=cursor):
                        if event.get("event") == "done":
                            done = event
                        elif event.get("event") == "result":
                            if (
                                event["index"] != cursor
                                or cursor >= len(reference)
                                or round(event["score"], 6) != reference[cursor]
                            ):
                                matched = False
                            cursor += 1
                            client.close()  # hang up mid-stream
                            break
                except ServiceError as error:
                    if not error.retryable or refused >= 256:
                        matched = False
                        break
                    refused += 1
            if done is None or done.get("scores") != reference \
                    or cursor != len(reference):
                matched = False
    finally:
        try:
            with ServiceClient(server.host, server.port) as closer:
                closer.shutdown()
        except (OSError, ConnectionError, ServiceError):  # pragma: no cover
            pass
        thread.join(timeout=10.0)

    return ChaosCase(
        workload=workload,
        operator=operator,
        matched=matched,
        injected=chaos.injected_errors,
        resumed=resumed,
    )


def run_chaos_suite(
    *,
    seed: int = 0,
    workloads: tuple[str, ...] = SEED_WORKLOADS,
    operator: str = "FRPA",
) -> list[ChaosCase]:
    """The chaos matrix: every workload via ``operator``, streamed under
    request chaos."""
    return [
        stream_chaos_run(workload, seed=seed, operator=operator)
        for workload in workloads
    ]


def render_report(cases: list[ChaosCase]) -> str:
    """A fixed-width table of the suite results."""
    header = (
        f"{'workload':<16}{'operator':<12}{'match':<7}"
        f"{'injected':>8}{'resumed':>8}"
    )
    lines = [header, "-" * len(header)]
    for case in cases:
        lines.append(
            f"{case.workload:<16}{case.operator:<12}"
            f"{'yes' if case.matched else 'NO':<7}"
            f"{case.injected:>8}{case.resumed:>8}"
        )
    passed = sum(case.ok for case in cases)
    lines.append("-" * len(header))
    lines.append(f"{passed}/{len(cases)} cases bit-identical with faults fired")
    return "\n".join(lines)
