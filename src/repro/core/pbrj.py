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

The loop and its *join step* — :meth:`PBRJ._join`, "buffer this tuple and
return the results it completes" — are written once, over a chain of ``n``
inputs joined link by link (the paper's Section 2.1 extension).  The binary
rank join is the two-input chain on the tuple key.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence
from functools import partial
from operator import attrgetter

from repro import kernels
from repro.core.bounds import BoundContext, BoundingScheme
from repro.core.pulling import PullingStrategy, side_labels
from repro.core.scoring import ScoringFunction
from repro.core.stepping import PENDING, ResumableBase
from repro.core.tuples import JoinResult, RankTuple
from repro.errors import InstanceError
from repro.obs import NULL_OBS, Observability
from repro.obs.span import Tracer
from repro.relation.relation import KEY_ATTR, attr_value, tuple_identity
from repro.relation.sources import TupleSource
from repro.stats.metrics import DepthReport, OperatorStats, TimingBreakdown
from repro.stats.trace import BoundTrace

#: Tolerance of every "does this score reach that bound" test in the
#: package — the one definition; the sharded engine's merge gate and
#: :mod:`repro.anyk.enumerate` import it.
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
    vectors, payloads) — the :func:`tuple_identity` of each constituent in
    input order — so any two executions — serial, sharded, any-k, under
    request chaos — order an exact-score tie group identically.
    """
    return sum(map(tuple_identity, result.tuples), ())


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
    sources:
        ``n >= 2`` sequential sources, each sorted in decreasing ``S̄``
        order (``S̄`` substitutes 1 for every other input's scores).
    scoring:
        Monotone aggregate over the concatenation of all score vectors in
        input order.
    bound:
        The bounding scheme ``B`` (fresh instance, not shared); any scheme
        that accepts ``n`` inputs.
    strategy:
        The pulling strategy ``P`` (fresh instance, not shared).
    join_attrs:
        ``n - 1`` join attribute names; ``join_attrs[i]`` links input ``i``
        to input ``i + 1`` (:func:`~repro.relation.relation.attr_value`:
        ``KEY_ATTR`` is the tuple key, any other name a payload entry).
        ``None`` joins every link on the tuple key.  Results are
        :class:`~repro.core.tuples.JoinResult` s, one tuple per input.
    name:
        Label used in reports.
    obs:
        Optional :class:`~repro.obs.Observability` pipeline.  When given,
        the operator registers a span tracer (``get_next`` with nested
        ``pull``/``join``/``bound``/``emit``) and records pull/emit
        counters; the bounding scheme attaches its own metrics to the same
        registry, and each ``try_next`` routes kernel-call counts there.
    """

    def __init__(
        self,
        sources: Sequence[TupleSource],
        scoring: ScoringFunction,
        bound: BoundingScheme,
        strategy: PullingStrategy,
        *,
        join_attrs: Sequence[str] | None = None,
        name: str = "PBRJ",
        trace: "BoundTrace | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        super().__init__()
        self._sources = tuple(sources)
        arity = len(self._sources)
        if arity < 2:
            raise InstanceError("a rank join needs at least two inputs")
        links = (KEY_ATTR,) * (arity - 1) if join_attrs is None else tuple(join_attrs)
        if len(links) != arity - 1:
            raise InstanceError(
                f"need {arity - 1} join attributes for {arity} inputs, got {len(links)}"
            )
        # Per link, the buffered tuples of its two ends keyed by its value;
        # per input, its links down to input 0 and up to input n - 1, each
        # as (value of a tuple, this side's buffer, the far side's).
        tables = [({}, {}) for _ in links]
        value_of = [
            attrgetter("key") if attr == KEY_ATTR else partial(attr_value, attr=attr)
            for attr in links
        ]
        self._links = tuple(
            (tuple((value_of[link], tables[link][1], tables[link][0])
                   for link in range(side - 1, -1, -1)),
             tuple((value_of[link], *tables[link]) for link in range(side, arity - 1)))
            for side in range(arity)
        )
        self.name = name
        self.scoring = scoring
        self._sides = tuple(range(arity))
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
        self._trace = trace
        if trace is not None and not trace.operator:
            trace.operator = name
        self._obs = obs if obs is not None else NULL_OBS
        if self._obs.enabled:
            self._tracer = self._obs.tracer(name)
            self._bound.observe(self._obs.metrics, name)
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
        if self._obs.enabled:
            # Kernel-call counters (the per-form Figure 2(b) mix under
            # `repro trace`) go to the pipeline of the operator running,
            # not of the one built last.
            kernels.observe(self._obs.metrics)
        with self._tracer.span("get_next"):
            try:
                return self._advance(max_pulls)
            finally:
                self._flush_counters()

    def _flush_counters(self) -> None:
        """Ship the step's tallies (pulls, the bound's)."""
        tally = self._pull_tally
        for side in self._sides:
            if tally[side]:
                self._m_pulls[side].inc(tally[side])
                tally[side] = 0
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

        ``rho`` is buffered at its end of each link it sits on, keyed by
        that link's value, and its neighbours' buffers are probed on the
        same values: a pull that completes nothing stops there.  Otherwise
        the chains through ``rho`` grow from it link by link, down to input
        0 and then up to input ``n - 1``, each carrying its score vector;
        they come out ordered by partner arrival, nearer inputs first.
        Each result carries its ``score`` and the vector it was scored
        from; the loop owns the output heap.
        (Loops, not comprehensions: a comprehension's closure would cost
        every pull.)
        """
        downs, ups = self._links[side]
        below = above = True
        if downs:
            value_of, here, there = downs[0]
            value = value_of(rho)
            here.setdefault(value, []).append(rho)
            below = there.get(value)
        if ups:
            value_of, here, there = ups[0]
            value = value_of(rho)
            here.setdefault(value, []).append(rho)
            above = there.get(value)
        if not below or not above:
            return ()
        chains = [((rho,), rho.scores)]
        for value_of, _, there in downs:
            grown = []
            for chain, scores in chains:
                for partner in there.get(value_of(chain[0]), ()):
                    grown.append(((partner,) + chain, partner.scores + scores))
            chains = grown
        for value_of, _, there in ups:
            grown = []
            for chain, scores in chains:
                for partner in there.get(value_of(chain[-1]), ()):
                    grown.append((chain + (partner,), scores + partner.scores))
            chains = grown
        scoring, results = self.scoring, []
        for chain, scores in chains:
            results.append(JoinResult(chain, scoring(scores), scores))
        return results

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

    def depths(self) -> list[int]:
        """Tuples pulled per input, in input order."""
        return [source.depth for source in self._sources]

    @property
    def sum_depths(self) -> int:
        return sum(source.depth for source in self._sources)

    def timing(self) -> TimingBreakdown:
        return TimingBreakdown(
            io=self._tracer.seconds("pull"),
            bound=self._tracer.seconds("bound"),
            total=self._tracer.seconds("get_next"),
        )

    def stats(self) -> OperatorStats:
        """Snapshot of all measurements, suitable for reports."""
        return OperatorStats(
            operator=self.name,
            depths=DepthReport.of(self.depths()),
            timing=self.timing(),
            io_cost=sum(source.cost for source in self._sources),
            bound_recomputations=self._bound.cover_recomputations,
            results=self._emitted,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PBRJ(name={self.name!r}, pulls={self._pulls}, t={self._t})"
