"""Per-layer probes: each layer timed from outside, through public calls.

No instrumentation lives under ``src/``: every number here comes from
timing a call into a layer's public functions (spin-normalised like the
end-to-end timings) or from reading a public counter.  The probes run
in-process on the same seeded query stream the TCP pass used, after the
fleet has shut down, so nothing competes with them for a core.
"""

from __future__ import annotations

import statistics
import tempfile
import time

from repro import kernels
from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.core.bounds import BoundContext
from repro.core.operators import make_components, make_operator
from repro.core.stepping import PENDING
from repro.exec import ExecConfig, ShardedRankJoin
from repro.kernels import PointSet
from repro.obs import Observability
from repro.obs.metrics import MetricRegistry
from repro.planner import Planner, clear_depth_cache, clear_stats_caches
from repro.relation.relation import RankJoinInstance, Relation
from repro.service import QueryService, QuerySpec, ResultCache

from measure import Machine
from spans import SpanLog
from workloads import Query, Workload

#: Timed repetitions per probe (each on its own query of the stream);
#: ``--smoke`` makes one.
REPS = 5

#: Seconds of work each, so ``--smoke`` leaves them out (they read null).
SLOW_PROBES = ("kernels.calibrate_s", "kernels.calibrated_ratio",
               "planner.plan_norm", "planner.regret_ratio",
               "exec.shards2_ratio", "obs.overhead_ratio")

#: The kernels the FR-family bound refresh is made of.
BOUND_KERNELS = ("cover_carve", "cover_corner_scores", "cross_product_max",
                 "dominates_any", "skyline_filter")

#: Operand size for a kernel the workload never calls.
DEFAULT_OPERAND = 24

median = statistics.median


def _instance(relations: dict, query: Query) -> RankJoinInstance:
    return RankJoinInstance(
        relations[query.left], relations[query.right], query.scoring(), query.k
    )


class Probes:
    """Runs the in-process probes of one workload into ``self.metrics``."""

    def __init__(self, workload: Workload, relations: dict,
                 queries: list[Query], machine: Machine, spans: SpanLog,
                 workdir, reps: int) -> None:
        self.workload = workload
        self.relations = relations
        self.queries = queries
        self.machine = machine
        self.spans = spans
        self.workdir = workdir
        self.reps = reps
        #: ``None`` reads ``null``: not measured, or not reproduced.
        self.metrics: dict[str, float | None] = {}
        #: Largest cover after each pull of the first probe query.
        self.cover_sizes: list[int] = []
        #: One prepared instance per repetition: building it (the sort)
        #: is submit-time work, measured by ``service.run_query_norm``.
        self.instances = [_instance(relations, q) for q in queries[:reps]]

    def _timed(self, span: str, fn) -> tuple[float, float]:
        """Median (normalised, raw seconds) of ``fn(rep)`` over the reps."""
        def traced(rep: int):
            with self.spans.span(span, f"probe{rep}"):
                fn(rep)
        normalised, raw = self.machine.bracketed(traced, self.reps)
        return median(normalised), median(raw)

    # ------------------------------------------------------------------
    def core(self) -> None:
        """``core.*``: the workload's operator, whole and taken apart."""
        name, k = self.workload.operator, self.queries[0].k
        finished = []

        def top_k(rep: int) -> None:
            operator = make_operator(name, self.instances[rep])
            operator.top_k(k)
            finished.append(operator)

        topk_norm, topk_raw = self._timed("core.topk", top_k)
        first_norm, _ = self._timed(
            "core.first",
            lambda rep: make_operator(name, self.instances[rep]).get_next(),
        )
        operator = finished[0]
        stats = operator.stats()
        pulls = operator.pulls
        self.topk_norm = topk_norm
        self.metrics.update({
            "core.topk_norm": topk_norm,
            "core.first_norm": first_norm,
            "core.sum_depths": float(pulls),
            "core.bound_recomputations": float(stats.bound_recomputations),
        })
        if name == "AnyK":
            # No PBRJ bound: the DP build is what AnyKRankJoin.timing()
            # itself books as bound time.
            timing = operator.timing()
            share = timing.bound / timing.total if timing.total else 0.0
            bound = topk_norm * share, topk_raw * share
        else:
            bound = self._replay_bound(stats.bound_recomputations)
        if bound is None:
            self.metrics.update(dict.fromkeys((
                "core.bound.update_norm", "core.bound.share",
                "core.bound.us_per_pull", "core.pull_join_norm")))
        else:
            bound_norm, bound_raw = bound
            self.metrics.update({
                "core.bound.update_norm": bound_norm,
                "core.bound.share": bound_norm / topk_norm,
                "core.bound.us_per_pull": bound_raw * 1e6 / pulls,
                "core.pull_join_norm": topk_norm - bound_norm,
            })
        self.metrics["core.cover_size_max"] = float(max(self.cover_sizes, default=0))

    def _pull_order(self, instance: RankJoinInstance) -> list[tuple[int, object]]:
        """The (side, tuple) sequence the operator pulls to reach top-k.

        Samples the bound's cover sizes along the way (``cover_sizes`` is
        public on the FR family), so the timed replay need not.
        """
        operator = make_operator(self.workload.operator, instance)
        bound = operator.bound_scheme
        depths, order, results = [0, 0], [], 0
        while results < instance.k:
            outcome = operator.try_next(max_pulls=1)
            for side in (0, 1):
                if operator.depth(side) > depths[side]:
                    depths[side] = operator.depth(side)
                    order.append((side, instance.sorted_tuples(side)[depths[side] - 1]))
                    if instance is self.instances[0] and hasattr(bound, "cover_sizes"):
                        self.cover_sizes.append(max(bound.cover_sizes))
            if outcome is None:
                break
            if outcome is not PENDING:
                results += 1
        return order

    def _replay_bound(self, expected_recomputations: int) -> tuple[float, float] | None:
        """Feed the recorded pulls to a fresh bound through bind()/update().

        Columns are appended before each update, as PBRJ does (and as
        PBRJ's own Figure 2(b) accounting books under bound time).  The
        replay must recompute exactly as often as the operator did, or
        its timing describes something else and is withheld (``None``).
        """
        orders = [self._pull_order(inst) for inst in self.instances]
        recomputations = []

        def replay(rep: int) -> None:
            instance = self.instances[rep]
            bound, _ = make_components(self.workload.operator)
            columns = (PointSet(instance.dims[0]), PointSet(instance.dims[1]))
            bound.bind(BoundContext(instance.scoring, instance.dims, columns))
            remaining = [len(instance.sorted_tuples(side)) for side in (0, 1)]
            for side, tup in orders[rep]:
                columns[side].append(tup.scores)
                bound.update(side, tup)
                remaining[side] -= 1
                if not remaining[side]:
                    bound.notify_exhausted(side)
            recomputations.append(bound.cover_recomputations)

        norm, raw = self._timed("core.bound.update", replay)
        if recomputations[0] != expected_recomputations:
            print(f"  ! bound replay recomputed {recomputations[0]}x, the "
                  f"operator {expected_recomputations}x: core.bound.* withheld")
            return None
        return norm, raw

    # ------------------------------------------------------------------
    def kernel_calls(self) -> None:
        """``kernels.*``: exact call counts and per-call cost."""
        name, k = self.workload.operator, self.queries[0].k
        registry = MetricRegistry()
        kernels.observe(registry)
        try:
            make_operator(name, self.instances[0]).top_k(k)
        finally:
            kernels.unobserve()
        calls = {fn: 0 for fn in BOUND_KERNELS}
        total = vectorized = 0
        for _, labels, counter in registry.metrics_named("kernel_calls_total"):
            total += counter.value
            if labels["kernel"] == "numpy":
                vectorized += counter.value
            if labels["fn"] in calls:
                calls[labels["fn"]] += counter.value
        self.metrics["kernels.calls_per_query"] = float(total)
        self.metrics["kernels.vectorized_share"] = vectorized / total if total else 0.0

        size = int(median(self.cover_sizes)) if self.cover_sizes else DEFAULT_OPERAND
        size = max(size, 2)
        rows = [t.scores for t in self.instances[0].sorted_tuples(0)[:size]]
        points = PointSet(len(rows[0]), rows)
        skyline = PointSet(len(rows[0]), [rows[i] for i in kernels.skyline_filter(points)])
        partials = [sum(row) for row in rows]
        probes = {
            "cover_carve": lambda: kernels.cover_carve(
                skyline, [rows[len(rows) // 2]], skyline_mode=True),
            "cover_corner_scores": lambda: kernels.cover_corner_scores(points),
            "cross_product_max": lambda: kernels.cross_product_max(partials, partials),
            "dominates_any": lambda: kernels.dominates_any(points, rows[-1]),
            "skyline_filter": lambda: kernels.skyline_filter(points),
        }
        for fn, call in probes.items():
            started = time.perf_counter()
            for _ in range(200):
                call()
            self.metrics[f"kernels.{fn}.calls"] = float(calls[fn])
            self.metrics[f"kernels.{fn}.call_us"] = (
                (time.perf_counter() - started) / 200 * 1e6)

    def calibration(self) -> None:
        """What a fresh threshold calibration costs, and what it buys."""
        name, k = self.workload.operator, self.queries[0].k
        started = time.perf_counter()
        kernels.calibrate_thresholds()
        self.metrics["kernels.calibrate_s"] = time.perf_counter() - started
        try:
            calibrated, _ = self._timed(
                "kernels.calibrated_topk",
                lambda rep: make_operator(name, self.instances[rep]).top_k(k),
            )
        finally:
            kernels.set_thresholds({})
        self.metrics["kernels.calibrated_ratio"] = calibrated / self.topk_norm

    # ------------------------------------------------------------------
    def anyk(self) -> None:
        """``anyk.*``: the any-k core on this workload's data."""
        k = self.queries[0].k
        build, pulls = [], []

        def run(rep: int) -> None:
            inst = self.instances[rep]
            started = time.perf_counter()
            with self.spans.span("anyk.build", f"probe{rep}"):
                operator = AnyKRankJoin(
                    AnyKQuery.binary(inst.left, inst.right), inst.scoring
                )
                operator.get_next()
            built = time.perf_counter()
            with self.spans.span("anyk.enumerate", f"probe{rep}"):
                operator.top_k(k)
            build.append((built - started) / (time.perf_counter() - started))
            pulls.append(operator.pulls)

        normalised, _ = self.machine.bracketed(run, self.reps)
        build_norm = [total * share for total, share in zip(normalised, build)]
        enumerate_norm = [total - part for total, part in zip(normalised, build_norm)]
        self.metrics.update({
            "anyk.build_norm": median(build_norm),
            "anyk.enumerate_norm": median(enumerate_norm),
            "anyk.pulls": float(pulls[0]),
        })

    # ------------------------------------------------------------------
    def _spec(self, query: Query) -> QuerySpec:
        return QuerySpec(
            relations=(self.relations[query.left], self.relations[query.right]),
            k=query.k, scoring=query.scoring(), operator=query.operator,
            algorithm=query.algorithm,
        )

    def service(self) -> None:
        """In-process ``service.*``: submit + schedule + cache, no wire."""
        service = QueryService()
        # Queries past the ones core() used, so neither this service's
        # cache nor a memoised prepared instance has seen them.
        specs = [self._spec(q) for q in self.queries[self.reps:2 * self.reps]]
        try:
            run_norm, _ = self._timed(
                "service.run_query", lambda rep: service.run_query(specs[rep]))
        finally:
            service.close()
            # The service's operators run with observability on, as the
            # fleet's do, which registers the process-wide kernel sink.
            kernels.unobserve()
        self.metrics["service.run_query_norm"] = run_norm
        self.metrics["service.overhead_share"] = (
            (run_norm - self.topk_norm) / run_norm)

        started = time.perf_counter()
        for spec in specs:
            spec.fingerprint()
        self.metrics["service.spec_fingerprint_us"] = (
            (time.perf_counter() - started) / len(specs) * 1e6)

        prefix = make_operator(
            self.workload.operator, self.instances[0]).top_k(self.queries[0].k)
        shared = tempfile.mkdtemp(prefix="probe-cache-", dir=self.workdir)
        cache = ResultCache(shared_dir=shared)
        keys = [f"probe{n:03d}" for n in range(50)]
        started = time.perf_counter()
        for key in keys:
            cache.store(key, prefix)
        stored = time.perf_counter()
        for key in keys:
            cache.lookup(key, len(prefix))
        looked_up = time.perf_counter()
        other_worker = ResultCache(shared_dir=shared)
        for key in keys:
            other_worker.lookup(key, len(prefix))
        loaded = time.perf_counter()
        self.metrics.update({
            "service.cache.store_us": (stored - started) / len(keys) * 1e6,
            "service.cache.lookup_us": (looked_up - stored) / len(keys) * 1e6,
            "service.cache.shared_load_us": (loaded - looked_up) / len(keys) * 1e6,
        })

    # ------------------------------------------------------------------
    def relation(self, timings: dict) -> None:
        """``data.*`` / ``relation.*``: what set-up and deep reads pay."""
        self.metrics["data.generate_s"] = timings["data.generate_s"]
        self.metrics["relation.build_s"] = timings["relation.build_s"]
        served = self.relations[self.queries[0].left]
        fresh = Relation("probe", list(served.tuples))
        started = time.perf_counter()
        fresh.fingerprint()
        self.metrics["relation.fingerprint_ms"] = (
            (time.perf_counter() - started) * 1e3)
        scan = self.instances[0].scans()[0]
        depth = max(1, min(len(scan), int(self.metrics["core.sum_depths"])))
        started = time.perf_counter()
        for _ in range(depth):
            scan.next()
        self.metrics["relation.scan_us_per_tuple"] = (
            (time.perf_counter() - started) / depth * 1e6)

    # ------------------------------------------------------------------
    def off_path(self, lo_relations: dict, lo_query: Query) -> None:
        """Modules no workload executes, on the ``cold_fr2`` instance.

        Kept so that a PR deleting one of them has a number to point at.
        """
        instance = _instance(lo_relations, lo_query)
        k = lo_query.k

        def run(top_k) -> float:
            normalised, _ = self.machine.bracketed(lambda rep: top_k(), 3)
            return median(normalised)

        def sharded(operator: str, config: ExecConfig):
            # Sharded engines own backend resources: close them.
            with ShardedRankJoin(instance, operator, config=config) as engine:
                engine.top_k(k)

        times = {name: run(lambda: make_operator(name, instance).top_k(k))
                 for name in ("FRPA", "HRJN*", "AnyK")}

        def plan(rep: int):
            clear_stats_caches()
            clear_depth_cache()
            return Planner().plan(
                [instance.left, instance.right], k, instance.scoring)

        with self.spans.span("planner.plan", "probe0"):
            (plan_norm,), _ = self.machine.bracketed(plan, 1)
        decision = plan(0)
        if decision.shards > 1:
            chosen = run(lambda: sharded(decision.operator, ExecConfig(
                shards=decision.shards, backend=decision.backend,
                partitioner=decision.partitioner)))
        else:
            chosen = times["AnyK" if decision.algorithm == "anyk"
                           else decision.operator]
        with self.spans.span("exec.shards2", "probe0"):
            two_shards = run(lambda: sharded(
                "FRPA", ExecConfig(shards=2, backend="serial")))
        with self.spans.span("obs.enabled_topk", "probe0"):
            try:
                observed = run(lambda: make_operator(
                    "FRPA", instance, obs=Observability()).top_k(k))
            finally:
                kernels.unobserve()  # PBRJ registered the kernel sink
        self.metrics.update({
            "planner.plan_norm": plan_norm,
            "planner.regret_ratio": chosen / min(times.values()),
            "exec.shards2_ratio": two_shards / times["FRPA"],
            "obs.overhead_ratio": observed / times["FRPA"],
        })

