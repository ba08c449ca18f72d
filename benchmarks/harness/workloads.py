"""The five named workloads and the inputs each one is built from.

Everything the program under test receives — relations, weight vectors,
the order queries arrive in — is a pure function of ``seed``.

The *score distribution draw* is part of the workload definition, not an
input (``DATA_SEED``): across draws FRPA's depth on the same generator
settings moves 541 -> 2571 tuples, which would bury any bound.  ``seed``
varies what the program may not depend on: which join-key value labels
which group, the order tuples sit in their relation, the order queries
arrive in, and which answers the oracle samples.  Depths and scores are
invariant under all of these, so exact counts repeat across seeds while
every fingerprint (and therefore every cache key) differs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.scoring import SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.data.workload import (
    WorkloadParams,
    anti_correlated_instance,
    lineitem_orders_instance,
)
from repro.relation.relation import Relation

#: The generators' seed: the draw ROADMAP's 541-pull FRPA headline comes
#: from.  Another draw would be another named workload.
DATA_SEED = 0

#: The published repeat-heavy (operator, k) mix — kept equal to
#: ``bench_serve_scale.QUERY_MIX`` / ``bench_service_throughput`` so the
#: cached series stays comparable with BENCH_serve_scale.json.
QUERY_MIX = (
    ("FRPA", 10), ("FRPA", 10), ("FRPA", 4), ("HRJN*", 10),
    ("FRPA", 15), ("HRJN*", 10), ("HRJN", 8), ("FRPA", 10),
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed ops of the untraced pass at BENCHMARK.json's ``run_seconds``.
    ops: int
    #: Ops of each half (untraced / traced) of the ``--trace 1`` TCP pass.
    traced_ops: int
    #: Ops between two calibration spins (1 = every op is bracketed).
    spin_every: int
    #: Operator whose in-process cost the per-layer probes take apart.
    operator: str
    algorithm: str = "pbrj"
    data: str = "lineitem_orders"
    #: Cold workloads carry a unique weight vector per query; the warm
    #: workload repeats ``QUERY_MIX`` over two relation pairs.
    cold: bool = True


# Why each one exists is recorded in BENCHMARK.json (``why``) and README.md.
WORKLOADS = {w.name: w for w in (
    # FR* refresh over 20-30 point covers: per-call glue dominates.
    Workload("cold_fr2", ops=100, traced_ops=25, spin_every=1, operator="FRPA"),
    # Same bound layer over 100-150 point covers: arithmetic dominates.
    Workload("cold_frwide", ops=100, traced_ops=15, spin_every=1,
             operator="a-FRPA", data="anti_correlated"),
    # Bound ~free, 3.8x the reads: pull/join, service and wire.
    Workload("cold_corner", ops=160, traced_ops=25, spin_every=1,
             operator="HRJN*"),
    # The second evaluation core: DP over the whole input.
    Workload("cold_anyk", ops=160, traced_ops=25, spin_every=1,
             operator="AnyK", algorithm="anyk"),
    # Zero pulls: wire, JSON, relay and ResultCache.
    Workload("warm_hit", ops=4800, traced_ops=400, spin_every=16,
             operator="FRPA", cold=False),
)}


@dataclass(frozen=True)
class Query:
    """One request plus what the oracle needs to check its answer."""

    left: str
    right: str
    k: int
    operator: str
    algorithm: str
    #: ``[[w, w], [w, w]]`` for a cold query, ``None`` for the plain sum.
    weights: tuple | None

    def request(self) -> dict:
        fields = {"left": self.left, "right": self.right, "k": self.k,
                  "operator": self.operator, "algorithm": self.algorithm}
        if self.weights is not None:
            fields["weights"] = [list(side) for side in self.weights]
        return fields

    def scoring(self):
        if self.weights is None:
            return SumScore()
        return WeightedSum([w for side in self.weights for w in side])


def scaled_ops(base: int, scale: float) -> int:
    """An op count stated at ``run_seconds``, scaled (never below 2)."""
    return max(2, round(base * scale))


def _add(timings: dict, name: str, seconds: float) -> None:
    timings[name] = timings.get(name, 0.0) + seconds


def _reseed(relations: list[Relation], names: list[str], rng,
            timings: dict) -> dict:
    """Relabel join keys and shuffle tuple order — same join, new content.

    One bijection over the union of the keys is applied to every relation
    of the group, so matches are preserved; scores are untouched.
    """
    keys = sorted({t.key for rel in relations for t in rel.tuples})
    relabelled = keys[:]
    rng.shuffle(relabelled)
    mapping = dict(zip(keys, relabelled))
    out = {}
    for name, rel in zip(names, relations):
        rows = [RankTuple(mapping[t.key], t.scores, t.payload) for t in rel.tuples]
        rng.shuffle(rows)
        started = time.perf_counter()
        out[name] = Relation(name, rows)
        _add(timings, "relation.build_s", time.perf_counter() - started)
    return out


def build_relations(workload: Workload, seed: int, timings: dict) -> dict:
    """The named relations the fleet serves for ``workload``.

    ``timings`` collects ``data.generate_s`` (the repo's generator call)
    and ``relation.build_s`` (constructing the served ``Relation``s).
    """
    rng = random.Random(f"relations:{seed}")
    relations = {}
    for pair in range(1 if workload.cold else 2):
        started = time.perf_counter()
        if workload.data == "anti_correlated":
            names = ["wide_left", "wide_right"]
            inst = anti_correlated_instance(
                n_left=1000, n_right=1000, num_keys=250, k=10, seed=DATA_SEED
            )
        else:
            names = [f"lineitem{pair}", f"orders{pair}"]
            inst = lineitem_orders_instance(WorkloadParams(
                e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=DATA_SEED + pair
            ))
        _add(timings, "data.generate_s", time.perf_counter() - started)
        relations.update(_reseed([inst.left, inst.right], names, rng, timings))
    return relations


def _cold_query(workload: Workload, index: int) -> Query:
    left, right = (("wide_left", "wide_right")
                   if workload.data == "anti_correlated"
                   else ("lineitem0", "orders0"))
    operator = "FRPA" if workload.algorithm == "anyk" else workload.operator
    return Query(
        left, right, 10, operator, workload.algorithm,
        ((1.0, 1.0), (1.0, 1.0 + (index + 1) * 1e-6)),
    )


def warmup_queries(workload: Workload, ops: int) -> list[Query]:
    """Set-up queries: run before the first timed op, never timed.

    Cold: two queries with weights outside the timed stream (imports,
    lazy tables and both workers' code paths warm; nothing cached that a
    timed query can hit).  Warm: each distinct mix query twice at its
    deepest k — the first run computes and publishes to the shared tier,
    the second lands on the other worker and promotes it into memory.
    """
    if workload.cold:
        return [_cold_query(workload, ops + extra) for extra in (0, 1)]
    deepest: dict[str, int] = {}
    for operator, k in QUERY_MIX:
        deepest[operator] = max(k, deepest.get(operator, 0))
    return [
        Query(f"lineitem{pair}", f"orders{pair}", k, operator, "pbrj", None)
        for pair in (0, 1)
        for operator, k in sorted(deepest.items())
        for _ in (0, 1)
    ]


def probe_queries(workload: Workload, start: int, count: int) -> list[Query]:
    """Uncached queries for the in-process probes: the workload's own
    operator and first relation pair, weights continuing the cold stream
    from index ``start`` (past the timed and warm-up queries)."""
    return [_cold_query(workload, start + index) for index in range(count)]


def timed_queries(workload: Workload, ops: int, seed: int) -> list[Query]:
    """The timed stream: the same multiset for every seed, seeded order."""
    rng = random.Random(f"queries:{seed}")
    if workload.cold:
        queries = [_cold_query(workload, index) for index in range(ops)]
    else:
        combos = [
            Query(f"lineitem{pair}", f"orders{pair}", k, operator, "pbrj", None)
            for pair in (0, 1) for operator, k in QUERY_MIX
        ]
        queries = [combos[index % len(combos)] for index in range(ops)]
    rng.shuffle(queries)
    return queries
