"""What an observability pipeline costs each operator, case by case.

Every service query runs under an :class:`~repro.obs.Observability`
pipeline.  An operator tallies its metrics in locals during a step and
publishes them once per ``try_next`` return, so the pipeline may add at
most 5 % — or 100 µs, below which a query is too short to time — to a
top-10 on the benchmark's instances.  Each case runs 40 rounds, eight
queries with the pipeline and eight without, alternating which go first;
a round's overhead is the difference of the two sides' fastest query, and
the median over the rounds is judged.  Runs are timed in thread CPU time
with the collector off, so a busy machine's preemptions and a collection
that lands in one run do not count; they are still timings, so the guard
runs on its own, under ``-m perf``.
"""

import gc
import statistics
import time

import pytest

from repro import kernels
from repro.core.operators import make_operator
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
)
from repro.obs import Observability

pytestmark = pytest.mark.perf

ROUNDS, QUERIES = 40, 8
SHARE, FLOOR = 0.05, 100e-6


def _cold_fr2():
    return lineitem_orders_instance(WorkloadParams(
        e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0))


def _cold_frwide():
    return anti_correlated_instance(
        n_left=1000, n_right=1000, num_keys=250, k=10, seed=0)


CASES = {
    "FRPA-cold_fr2": ("FRPA", _cold_fr2),
    "a-FRPA-cold_frwide": ("a-FRPA", _cold_frwide),
    "HRJN*-cold_fr2": ("HRJN*", _cold_fr2),
    "AnyK-cold_fr2": ("AnyK", _cold_fr2),
}


def _seconds(name, instance, obs) -> float:
    """Thread CPU seconds of one top-K: the least of ``QUERIES``, which a
    neighbour's burst on a shared core leaves alone in one of them."""
    best = float("inf")
    for _ in range(QUERIES):
        started = time.thread_time()
        make_operator(name, instance, obs=obs).top_k(instance.k)
        best = min(best, time.thread_time() - started)
        kernels.unobserve()  # a plain run must book no kernel calls
    return best


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_adds_at_most_five_percent(case):
    name, build = CASES[case]
    instance = build()
    shared = Observability()  # one pipeline for every run, as a worker has
    for obs in (shared, None):  # warm both paths
        _seconds(name, instance, obs)
    plain, extra = [], []
    gc.disable()  # a collection would land in whichever run triggers it
    try:
        for round_ in range(ROUNDS):
            timed = {}
            for obs in ((shared, None) if round_ % 2 else (None, shared)):
                timed[obs is None] = _seconds(name, instance, obs)
            plain.append(timed[True])
            extra.append(timed[False] - timed[True])
    finally:
        gc.enable()
    base, overhead = statistics.median(plain), statistics.median(extra)
    assert overhead <= max(SHARE * base, FLOOR), (
        f"{case}: +{overhead * 1e6:.0f} µs on {base * 1e3:.2f} ms "
        f"({overhead / base:+.1%})")
