"""The Pull-Bound Rank Join (PBRJ) template — Figure 1 of the paper.

PBRJ is the algorithm template every deterministic rank join operator can be
expressed in (the equivalence result of Schnaitter & Polyzotis).  It is
instantiated with a :class:`~repro.core.bounds.BoundingScheme` ``B`` and a
:class:`~repro.core.pulling.PullingStrategy` ``P`` and exposes the iterator
interface: ``get_next()`` returns the next join result in decreasing score
order, or ``None`` when the output is exhausted.

Per loop iteration: ``P`` chooses an input, one tuple is pulled, joined
against the buffered tuples of the other inputs, the new results enter the
ordered output buffer, and ``B`` refreshes the bound ``t`` on undiscovered
results.  The buffered top is emitted once its score reaches ``t``.

The loop is written once, over ``n`` inputs.  The *join step* —
:meth:`PBRJ._join`, "buffer this tuple and return the results it completes"
— is the only per-arity code: :class:`PBRJ` joins two inputs on the tuple
key, :class:`~repro.core.multiway.MultiwayRankJoin` overrides it to join a
chain on payload attributes (the paper's Section 2.1 extension).
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence

from repro import kernels
from repro.core.bounds import LEFT, BoundContext, BoundingScheme
from repro.core.pulling import PullingStrategy, side_labels
from repro.core.scoring import ScoringFunction
from repro.core.stepping import PENDING, ResumableBase
from repro.core.tuples import JoinResult, RankTuple
from repro.obs import NULL_OBS, Observability
from repro.obs.span import Tracer
from repro.relation.relation import tuple_identity
from repro.relation.sources import TupleSource
from repro.stats.metrics import (
    DepthReport,
    MemoryHighWater,
    OperatorStats,
    TimingBreakdown,
)
from repro.stats.trace import BoundTrace

#: Tolerance of every "does this score reach that bound" test in the
#: package — the one definition; :mod:`repro.core.multiway`, the sharded
#: engine's merge gate and :mod:`repro.anyk.enumerate` import it.
#: Scores are sums of a few floats, so genuine differences are far larger
#: than accumulated error.  Tie semantics: two scores within ``SCORE_EPS``
#: of each other are a tie, everywhere.  An operator emits
#: ``O.top()`` once ``S(O.top()) >= t - SCORE_EPS`` (a result tying the
#: threshold is safe to emit — nothing unseen can beat it); the sharded
#: merge gate holds a candidate back while any live shard's frontier is
#: ``>= score - SCORE_EPS`` (a shard that can still tie it may own the
#: canonical predecessor); the any-k enumerator drains every solution
#: within ``SCORE_EPS`` of a batch head into one tie batch.  The merge and
#: the any-k engine order the members of a tie by content only — exact
#: score descending, then :func:`result_identity`; a serial operator's own
#: heap breaks exact-score ties by arrival order.
SCORE_EPS = 1e-9


def result_identity(result: JoinResult) -> tuple:
    """The canonical tie order: a total order over join results that is
    independent of discovery.

    Built purely from result *content* (join keys, full-precision score
    vectors, payloads), so any two executions — serial, sharded, any-k,
    under request chaos — order an exact-score tie group identically.
    """
    return tuple_identity(result.left) + tuple_identity(result.right)


#: Per-pull span timing: the first ``_TIMING_WARMUP`` pulls are timed
#: exactly (small runs stay exact), after which one pull in
#: ``_TIMING_STRIDE`` is timed and scaled — holding instrumentation
#: overhead on the serial hot path inside the observability plane's 5%
#: budget while keeping span seconds an unbiased estimate.
_TIMING_WARMUP = 32
_TIMING_STRIDE = 32


class PBRJ(ResumableBase):
    """The Pull-Bound Rank Join operator template.

    Parameters
    ----------
    left, right:
        Sequential sources sorted in decreasing ``S̄`` order.
    scoring:
        Monotone aggregate over the concatenated score vector.
    bound:
        The bounding scheme ``B`` (fresh instance, not shared).
    strategy:
        The pulling strategy ``P`` (fresh instance, not shared).
    name:
        Label used in reports.
    obs:
        Optional :class:`~repro.obs.Observability` pipeline.  When given,
        the operator registers a span tracer (``get_next`` with nested
        ``pull``/``join``/``bound``/``emit``) and records pull/emit
        counters plus the output-heap peak; the bounding scheme and
        pulling strategy attach their own metrics to the same registry.
    """

    def __init__(
        self,
        left: TupleSource,
        right: TupleSource,
        scoring: ScoringFunction,
        bound: BoundingScheme,
        strategy: PullingStrategy,
        *,
        name: str = "PBRJ",
        trace: "BoundTrace | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        self._buffers: tuple[dict, dict] = ({}, {})
        self._setup(
            (left, right), scoring, bound, strategy, name=name, trace=trace, obs=obs,
        )

    def _setup(
        self,
        sources: Sequence[TupleSource],
        scoring: ScoringFunction,
        bound: BoundingScheme,
        strategy: PullingStrategy,
        *,
        name: str,
        trace: "BoundTrace | None",
        obs: "Observability | None",
    ) -> None:
        """Wire the loop over ``sources``; every constructor ends here."""
        super().__init__()
        self.name = name
        self.scoring = scoring
        self._sources = tuple(sources)
        self._sides = tuple(range(len(self._sources)))
        self._bound = bound
        self._strategy = strategy
        self._bound.bind(
            BoundContext(scoring, tuple(source.dimension for source in self._sources))
        )
        self._strategy.bind(len(self._sources))
        self._output: list[tuple[float, int, object]] = []
        self._sequence = 0
        self._t = float("inf")
        self._exhausted = [False] * len(self._sources)
        self._pulls = 0
        self._emitted = 0
        self._max_output = 0
        self._trace = trace
        if trace is not None and not trace.operator:
            trace.operator = name
        self._obs = obs if obs is not None else NULL_OBS
        if self._obs.enabled:
            self._tracer = self._obs.tracer(name)
            self._bound.observe(self._obs.metrics, name)
            self._strategy.observe(self._obs.metrics, name)
            # Per-kernel-call counters + bound_kernel_seconds histogram:
            # the per-backend Figure 2(b) breakdown under `repro trace`.
            kernels.observe(self._obs.metrics)
        else:
            # Timing without an observability pipeline: a private,
            # unregistered tracer, sampled like a registered one.
            self._tracer = Tracer()
        metrics = self._obs.metrics
        self._m_pulls = tuple(
            metrics.counter("pulls_total", op=name, side=label)
            for label in side_labels(len(self._sources))
        )
        self._m_emitted = metrics.counter("results_emitted_total", op=name)
        self._m_heap_peak = metrics.gauge("output_heap_peak", op=name)
        self._heap_peak_shipped = -1
        # Pulls tally into plain ints on the hot path and flush into the
        # counters when get_next returns — the registry is exact at every
        # external observation point (quantum boundaries, snapshots).
        self._pull_tally = [0] * len(self._sources)
        # Pre-resolved span accumulators for the per-pull hot loop: a
        # perf_counter pair + add() per region instead of the full span
        # context-manager protocol.  Paths match what nested spans would
        # produce, so trace output is identical either way.  The first
        # _TIMING_WARMUP pulls are timed exactly; after that only every
        # _TIMING_STRIDE-th pull is, scaled so seconds/count stay
        # unbiased estimates — pull/result *counters* are exact always.
        # ``_timer_countdown`` schedules the next timed pull (1 = now);
        # ``_timer_scale`` is the weight the next sample stands in for.
        self._timer_tick = 0
        self._timer_countdown = 1
        self._timer_scale = 1
        self._s_pull = self._tracer.handle(("get_next", "pull"))
        self._s_join = self._tracer.handle(("get_next", "join"))
        self._s_bound = self._tracer.handle(("get_next", "bound"))
        self._s_emit = self._tracer.handle(("get_next", "emit"))

    # ------------------------------------------------------------------
    # OperatorView protocol (consumed by pulling strategies)
    # ------------------------------------------------------------------
    def depth(self, side: int) -> int:
        """Tuples pulled so far from ``side``."""
        return self._sources[side].depth

    def is_exhausted(self, side: int) -> bool:
        return self._exhausted[side]

    def potential(self, side: int) -> float:
        return self._bound.potential(side)

    # ------------------------------------------------------------------
    # Iterator interface (get_next / top_k / __iter__ / emitted_results
    # come from ResumableBase)
    # ------------------------------------------------------------------
    def try_next(self, max_pulls: int | None = None):
        """Bounded step: advance by at most ``max_pulls`` pulls.

        Returns the next join result in decreasing score order, ``None``
        when the output is exhausted, or :data:`~repro.core.stepping.PENDING`
        when the quantum elapsed before a result could be emitted.  All
        state is retained between calls, so ``try_next`` interleaves freely
        with ``get_next`` (the resumable execution contract of
        :mod:`repro.core.stepping`); ``max_pulls=None`` is ``get_next``.
        """
        with self._tracer.span("get_next"):
            try:
                return self._advance(max_pulls)
            finally:
                self._flush_counters()

    def _flush_counters(self) -> None:
        """Ship the step's tallies (pulls, heap peak, choices, the bound's)."""
        tally = self._pull_tally
        for side in self._sides:
            if tally[side]:
                self._m_pulls[side].inc(tally[side])
                tally[side] = 0
        if self._max_output > self._heap_peak_shipped:
            self._heap_peak_shipped = self._max_output
            self._m_heap_peak.set(self._max_output)
        self._strategy.flush_choices()
        self._bound.flush()

    def _advance(self, pull_quantum: int | None):
        pulled_here = 0
        while True:
            self._refresh_exhausted()
            if self._output and -self._output[0][0] >= self._t - SCORE_EPS:
                break
            if all(self._exhausted):
                break
            if pull_quantum is not None and pulled_here >= pull_quantum:
                return PENDING
            side = self._strategy.choose(self)
            remaining = self._timer_countdown - 1
            timed = not remaining
            if remaining:  # untimed pull; counters stay exact
                self._timer_countdown = remaining
            else:
                scale = self._timer_scale
                tick = self._timer_tick = self._timer_tick + 1
                if tick >= _TIMING_WARMUP:
                    self._timer_scale = _TIMING_STRIDE
                self._timer_countdown = self._timer_scale
            if timed:
                started = time.perf_counter()
            pulled = self._sources[side].next_scored()
            if timed:
                now = time.perf_counter()
                self._s_pull.add_scaled(now - started, scale)
            if pulled is None:  # concurrent exhaustion guard
                continue
            rho, sbar = pulled
            self._pulls += 1
            pulled_here += 1
            self._pull_tally[side] += 1
            output = self._output
            for result in self._join(side, rho):
                heapq.heappush(output, (-result.score, self._sequence, result))
                self._sequence += 1
            if len(output) > self._max_output:
                # The gauge itself ships lazily in _flush_counters — a new
                # peak per heap push is too frequent for a registry write.
                self._max_output = len(output)
            if timed:
                started = time.perf_counter()
                self._s_join.add_scaled(started - now, scale)
            self._t = self._bound.update(side, rho, sbar)
            if timed:
                self._s_bound.add_scaled(time.perf_counter() - started, scale)
            if self._trace is not None:
                self._trace.record(
                    self._pulls, side, self._t, len(self._output), self._emitted
                )
        if self._output:
            started = time.perf_counter()
            self._emitted += 1
            self._m_emitted.inc()
            result = heapq.heappop(self._output)[2]
            self._history.append(result)
            self._s_emit.add(time.perf_counter() - started)
            return result
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_exhausted(self) -> None:
        for side in self._sides:
            if not self._exhausted[side] and not self._sources[side].has_next():
                self._exhausted[side] = True
                with self._tracer.span("bound"):
                    self._t = self._bound.notify_exhausted(side)

    def _join(self, side: int, rho: RankTuple) -> Sequence:
        """The join step: buffer ``rho``, return the results it completes.

        Each result carries its ``score``; the loop owns the output heap.
        This is the binary equi-join on the tuple key.
        """
        matches = self._buffers[1 - side].get(rho.key, ())
        self._buffers[side].setdefault(rho.key, []).append(rho)
        if not matches:
            return ()
        scoring = self.scoring
        if side == LEFT:
            return [
                JoinResult.combine(rho, partner, scoring(rho.scores + partner.scores))
                for partner in matches
            ]
        return [
            JoinResult.combine(partner, rho, scoring(partner.scores + rho.scores))
            for partner in matches
        ]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def bound_value(self) -> float:
        """Current bound ``t`` on undiscovered results."""
        return self._t

    def frontier(self) -> float:
        """Upper bound on the score of any result this operator can still emit.

        Combines the bounding scheme's bound ``t`` on *undiscovered*
        results with the best *buffered-but-unemitted* result.  Once every
        input is exhausted ``t`` is vacuous and only the buffer matters.
        Non-increasing over the operator's lifetime; ``-inf`` means fully
        drained.  Used by the sharded engine's merge gate to decide when
        a candidate's score provably beats everything a shard still holds.
        """
        best_buffered = self.best_buffered()
        if all(self._exhausted):
            return best_buffered
        return max(self._t, best_buffered)

    def best_buffered(self) -> float:
        """Score of the best discovered-but-unemitted result; ``-inf`` if none."""
        return -self._output[0][0] if self._output else float("-inf")

    @property
    def bound_scheme(self) -> BoundingScheme:
        return self._bound

    @property
    def tracer(self) -> Tracer:
        """The operator's span tracer (pull/join/bound/emit aggregates)."""
        return self._tracer

    @property
    def pulls(self) -> int:
        return self._pulls

    def depths(self) -> DepthReport:
        return self._depth_report()

    def _depth_report(self) -> DepthReport:
        """Depths in the reports' two-column vocabulary: the first input,
        then every other input together (for the binary join: left, right)."""
        first, *rest = (source.depth for source in self._sources)
        return DepthReport(first, sum(rest))

    def timing(self) -> TimingBreakdown:
        return TimingBreakdown(
            io=self._tracer.seconds("pull"),
            bound=self._tracer.seconds("bound"),
            total=self._tracer.seconds("get_next"),
        )

    def memory(self) -> MemoryHighWater:
        """Peak buffer occupancy: hash tables grow with depth, the output
        heap with generated-but-unemitted results."""
        depths = self._depth_report()
        return MemoryHighWater(
            hash_left=depths.left, hash_right=depths.right, output=self._max_output
        )

    def stats(self) -> OperatorStats:
        """Snapshot of all measurements, suitable for reports."""
        return OperatorStats(
            operator=self.name,
            depths=self._depth_report(),
            timing=self.timing(),
            io_cost=sum(source.cost for source in self._sources),
            bound_recomputations=self._bound.cover_recomputations,
            results=self._emitted,
            memory=self.memory(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PBRJ(name={self.name!r}, pulls={self._pulls}, t={self._t})"
