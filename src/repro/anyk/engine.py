"""`AnyKRankJoin` — the any-k core behind the PBRJ operator contract.

The facade glues decomposition (:mod:`repro.anyk.decompose`), the
budgeted DP pass (:mod:`repro.anyk.dp`) and ranked enumeration
(:mod:`repro.anyk.enumerate`) into a :class:`~repro.core.stepping.
ResumableOperator`: ``try_next(max_pulls)`` / ``get_next`` /
history-retaining ``top_k`` / ``frontier()`` — the exact surface
:class:`~repro.service.session.QuerySession` and the chaos harness
already drive, so the whole service stack runs any-k with zero changes.

Cost accounting: a *pull* is one unit of work — one tuple processed
by the DP or one candidate heap pop during enumeration.  ``try_next``
returns :data:`~repro.core.stepping.PENDING` once its quantum is spent
mid-build, exactly like a PBRJ pull quantum; emission may overshoot a
quantum by at most one tie batch (documented, bounded by the largest
exact-score tie group).

``frontier()`` is *exact* once the DP is complete: the engine holds the
next tie batch buffered, so the bound equals the next emission's score
(PBRJ's frontier is only an upper bound).  During the build it is
``+inf`` — nothing is provable yet — which keeps any merge gate over it
conservative and correct.
"""

from __future__ import annotations

import time
from collections import deque

from repro.anyk.decompose import AnyKQuery, decompose
from repro.anyk.dp import DPState
from repro.anyk.enumerate import Enumerator
from repro.core.operators import ANYK_OPERATOR
from repro.core.scoring import ScoringFunction, SumScore
from repro.core.stepping import PENDING, ResumableBase
from repro.core.tuples import JoinResult
from repro.obs import NULL_OBS, TraceContext, span_record
from repro.relation.relation import RankJoinInstance
from repro.stats.metrics import DepthReport, OperatorStats, TimingBreakdown


class AnyKRankJoin(ResumableBase):
    """Ranked enumeration (any-k) as a resumable rank join operator.

    Parameters
    ----------
    query:
        The :class:`~repro.anyk.decompose.AnyKQuery` to enumerate.
    scoring:
        Additive scoring function (``SumScore``/``WeightedSum``/
        ``AverageScore``); anything else raises at construction.
    name:
        Operator display name (metric/span label).
    obs / trace:
        Optional observability pipeline and parent trace context.
    """

    def __init__(
        self,
        query: AnyKQuery,
        scoring: ScoringFunction | None = None,
        *,
        name: str = ANYK_OPERATOR,
        obs=None,
        trace=None,
    ) -> None:
        super().__init__()
        self.name = name
        self.query = query
        self.scoring = scoring if scoring is not None else SumScore()
        self._obs = obs if obs is not None else NULL_OBS
        self._dp = DPState(decompose(query, self.scoring))
        self._enum: Enumerator | None = None
        self._batch: deque = deque()  # the buffered tie batch's results
        self._exhausted = False
        self._pulls = 0
        self._dp_seconds = 0.0
        self._total_seconds = 0.0

        if self._obs.enabled:
            self.trace = trace.child() if trace is not None else TraceContext.root()
            self._obs.trace(span_record(
                self.trace, "anyk", op=name,
                relations=len(query.relations),
            ))
        else:
            self.trace = None
        metrics = self._obs.metrics
        self._m_dp_tuples = metrics.counter("anyk_dp_tuples_total", op=name)
        self._m_emitted = metrics.counter("results_emitted_total", op=name)

    # ------------------------------------------------------------------
    # ResumableOperator interface (the rest comes from ResumableBase)
    # ------------------------------------------------------------------
    def try_next(self, max_pulls: int | None = None):
        """Bounded step: a result, ``None`` (exhausted), or ``PENDING``.

        ``max_pulls`` caps the work units (DP tuples + heap pops) spent
        in this call; ``try_next(max_pulls=0)`` drains the buffered tie
        batch without doing any work, mirroring the PBRJ zero-pull
        contract.
        """
        started = time.perf_counter()
        try:
            return self._step(max_pulls)
        finally:
            self._total_seconds += time.perf_counter() - started

    def _step(self, max_pulls: int | None):
        if self._batch:
            return self._emit(self._batch.popleft())
        if self._exhausted:
            return None
        spent = 0
        if not self._dp.done:
            if max_pulls is not None and max_pulls <= 0:
                return PENDING
            dp_started = time.perf_counter()
            spent = self._dp.run(max_pulls)
            self._dp_seconds += time.perf_counter() - dp_started
            self._pulls += spent
            self._m_dp_tuples.inc(spent)
            if not self._dp.done:
                return PENDING
            if self.trace is not None:
                self._obs.trace(span_record(
                    self.trace.child(), "anyk_dp", op=self.name,
                    seconds=self._dp_seconds,
                    tuples=self._dp.tuples_processed, pruned=self._dp.pruned,
                ))
        if self._enum is None:
            self._enum = Enumerator(self._dp)
        if max_pulls is not None and spent >= max_pulls:
            return PENDING
        before = self._enum.pops
        batch = self._enum.next_batch()
        self._pulls += self._enum.pops - before
        if not batch:
            self._exhausted = True
            return None
        # DP scores order the batches; the scoring function (PBRJ's call)
        # scores each result bit-identically across cores, and the
        # identities (:func:`repro.core.pbrj.result_identity`) order a tie.
        scored = []
        for _, tuples, identity in batch:
            scores = tuple(s for t in tuples for s in t.scores)
            scored.append((JoinResult(tuples, self.scoring(scores), scores), identity))
        scored.sort(key=lambda entry: (-entry[0].score, entry[1]))
        self._batch = deque(result for result, _ in scored)
        return self._emit(self._batch.popleft())

    @property
    def pulls(self) -> int:
        """Work units spent: DP tuples processed + successor heap pops."""
        return self._pulls

    # ------------------------------------------------------------------
    # Emission and accounting
    # ------------------------------------------------------------------
    def _emit(self, result: JoinResult) -> JoinResult:
        self._history.append(result)
        self._m_emitted.inc()
        return result

    # ------------------------------------------------------------------
    # Reporting (the PBRJ-compatible surface)
    # ------------------------------------------------------------------
    @property
    def bound_value(self) -> float:
        """Upper bound on any still-unemitted result (exact post-DP)."""
        return self.frontier()

    def frontier(self) -> float:
        """Best score this operator can still emit.

        ``+inf`` while the DP is building (nothing provable yet, the
        conservative bound), the buffered batch head once enumeration is
        live (exact), ``-inf`` when drained.
        """
        if self._batch:
            return self._batch[0].score
        if self._exhausted:
            return float("-inf")
        if not self._dp.done or self._enum is None:
            return float("inf")
        return self._enum.peek()

    def depth(self, side: int) -> int:
        """Tuples of relation ``side`` ingested by the DP so far."""
        return self._dp.ingested[side]

    def depths(self) -> list[int]:
        """Tuples of each relation ingested by the DP, in relation order."""
        return list(self._dp.ingested)

    @property
    def sum_depths(self) -> int:
        return sum(self._dp.ingested)

    def stats(self) -> OperatorStats:
        """Measurement snapshot in the harness's PBRJ vocabulary.

        ``sumDepths`` counts DP-ingested input tuples; ``bound`` time is
        the DP build (the analogue of bound maintenance); ``io_cost`` is
        the ingested-tuple count (unit cost per tuple read).
        """
        return OperatorStats(
            operator=self.name,
            depths=DepthReport.of(self._dp.ingested),
            timing=self.timing(),
            io_cost=float(self.sum_depths),
            bound_recomputations=0,
            results=len(self._history),
        )

    def timing(self) -> TimingBreakdown:
        return TimingBreakdown(
            io=0.0, bound=self._dp_seconds, total=self._total_seconds
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnyKRankJoin({self.name!r}, relations={len(self.query.relations)}, "
            f"pulls={self._pulls}, emitted={len(self._history)})"
        )


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def anyk_operator(instance: RankJoinInstance, **kwargs) -> AnyKRankJoin:
    """The binary any-k operator over a :class:`RankJoinInstance`.

    Signature-compatible with the PBRJ factories in
    :data:`repro.core.operators.OPERATORS`, so the chaos harness and
    ``make_operator`` callers build it the same way.
    """
    return AnyKRankJoin(
        AnyKQuery.binary(instance.left, instance.right),
        instance.scoring,
        **kwargs,
    )

