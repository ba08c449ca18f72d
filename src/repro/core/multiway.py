"""Multiway (n-ary) rank join — the paper's Section 2.1 extension.

The paper focuses on binary operators but notes that the n-ary rank join is
interesting in its own right: Schnaitter & Polyzotis proved that multiway
operators can be instance-optimal relative to *plans of binary operators*,
which pay for materializing intermediate orderings.  This module implements
a multiway PBRJ analogue over a chain of equi-joins:

    R_1 ⋈_{a_1} R_2 ⋈_{a_2} … ⋈_{a_{n-1}} R_n

with the corner bound generalized to n inputs (``thr_i`` substitutes 1 for
every other relation's score attributes) and potential-adaptive pulling.
New tuples are joined against the already-buffered tuples of the other
relations by probing hash indexes along the chain in both directions.

This is the HRJN*-style member of the multiway family; it is exact (tested
against the brute-force oracle) and incremental, and the accompanying
benchmark compares it against pipelines of binary operators.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence

from repro.core.multiway_fr import MultiwayBound, MultiwayCornerBound
from repro.core.pbrj import SCORE_EPS
from repro.core.scoring import ScoringFunction
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.errors import InstanceError, PullBudgetExceeded, TimeBudgetExceeded
from repro.obs import NULL_OBS, Observability
from repro.obs.span import Tracer
from repro.relation.sources import TupleSource, score_bound

POS_INF = float("inf")


class MultiwayResult:
    """A complete n-way join result."""

    __slots__ = ("tuples", "score", "scores")

    def __init__(self, tuples: tuple[RankTuple, ...], score: float) -> None:
        self.tuples = tuples
        self.score = score
        self.scores = tuple(s for t in tuples for s in t.scores)

    def merged_payload(self) -> dict:
        merged: dict = {}
        for tup in self.tuples:
            if isinstance(tup.payload, dict):
                merged.update(tup.payload)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiwayResult(score={self.score:.4f}, n={len(self.tuples)})"


class MultiwayRankJoin:
    """An n-ary rank join operator over a chain of equi-joins.

    Parameters
    ----------
    sources:
        One sorted source per relation (decreasing ``S̄`` order, where
        ``S̄`` substitutes 1 for all other relations' attributes).
    join_attrs:
        ``n - 1`` payload attribute names; ``join_attrs[i]`` links relation
        ``i`` and relation ``i + 1``.  Tuple payloads must be dicts
        containing their chain attributes.
    scoring:
        Monotone aggregate over the concatenation of all score vectors in
        relation order.
    """

    def __init__(
        self,
        sources: Sequence[TupleSource],
        join_attrs: Sequence[str],
        scoring: ScoringFunction,
        *,
        bound: MultiwayBound | None = None,
        name: str = "MW-HRJN*",
        track_time: bool = True,
        max_pulls: int | None = None,
        max_seconds: float | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        if len(sources) < 2:
            raise InstanceError("multiway rank join needs at least two inputs")
        if len(join_attrs) != len(sources) - 1:
            raise InstanceError(
                f"need {len(sources) - 1} join attributes for "
                f"{len(sources)} inputs, got {len(join_attrs)}"
            )
        self.name = name
        self.scoring = scoring
        self._sources = list(sources)
        self._join_attrs = list(join_attrs)
        self._n = len(sources)
        self._dims = [s.dimension for s in sources]
        # Buffers: per relation, tuples indexed by left-chain and
        # right-chain attribute values.
        self._buffers: list[list[RankTuple]] = [[] for _ in range(self._n)]
        self._by_left_attr: list[dict] = [dict() for _ in range(self._n)]
        self._by_right_attr: list[dict] = [dict() for _ in range(self._n)]
        self._bound_scheme = bound or MultiwayCornerBound()
        self._bound_scheme.bind(self._dims, scoring)
        self._t = POS_INF
        self._exhausted = [False] * self._n
        self._output: list[tuple[float, int, MultiwayResult]] = []
        self._sequence = 0
        self._pulls = 0
        self._history: list[MultiwayResult] = []
        self._emitted = 0
        self._max_pulls = max_pulls
        self._max_seconds = max_seconds
        self._started_at: float | None = None
        self._obs = obs if obs is not None else NULL_OBS
        if self._obs.enabled:
            self._tracer = self._obs.tracer(name)
        else:
            self._tracer = Tracer(enabled=track_time)
        metrics = self._obs.metrics
        self._m_pulls = tuple(
            metrics.counter("pulls_total", op=name, side=str(i))
            for i in range(self._n)
        )
        self._m_emitted = metrics.counter("results_emitted_total", op=name)

    # ------------------------------------------------------------------
    # Score-bound helpers
    # ------------------------------------------------------------------
    def score_bound(self, index: int, tup: RankTuple) -> float:
        """``S̄`` of a tuple of relation ``index`` (1-substitution)."""
        return score_bound(self.scoring, self._dims, index, tup.scores)

    def _bound(self) -> float:
        return self._t

    # ------------------------------------------------------------------
    # Chain attribute access
    # ------------------------------------------------------------------
    def _left_attr(self, index: int) -> str | None:
        """Attribute linking relation ``index`` to ``index - 1``."""
        return self._join_attrs[index - 1] if index > 0 else None

    def _right_attr(self, index: int) -> str | None:
        """Attribute linking relation ``index`` to ``index + 1``."""
        return self._join_attrs[index] if index < self._n - 1 else None

    @staticmethod
    def _attr_value(tup: RankTuple, attr: str):
        payload = tup.payload
        if not isinstance(payload, dict) or attr not in payload:
            raise InstanceError(
                f"tuple payload lacks chain attribute {attr!r}: {payload!r}"
            )
        return payload[attr]

    # ------------------------------------------------------------------
    # Iterator interface
    # ------------------------------------------------------------------
    def get_next(self) -> MultiwayResult | None:
        """Next n-way join result in decreasing score order, or None."""
        with self._tracer.span("get_next"):
            return self._get_next_inner(None)

    def try_next(self, max_pulls: int | None = None):
        """Bounded step: advance by at most ``max_pulls`` pulls.

        Returns the next :class:`MultiwayResult`, ``None`` when exhausted,
        or :data:`~repro.core.stepping.PENDING` when the quantum elapsed
        first (state retained; call again to continue).
        """
        with self._tracer.span("get_next"):
            return self._get_next_inner(max_pulls)

    def _get_next_inner(self, pull_quantum: int | None):
        if self._started_at is None:
            self._started_at = time.perf_counter()
        pulled_here = 0
        while True:
            self._refresh_exhausted()
            if self._output and -self._output[0][0] >= self._bound() - SCORE_EPS:
                break
            if all(self._exhausted):
                break
            if pull_quantum is not None and pulled_here >= pull_quantum:
                return PENDING
            if self._max_seconds is not None:
                elapsed = time.perf_counter() - self._started_at
                if elapsed > self._max_seconds:
                    raise TimeBudgetExceeded(elapsed, self._max_seconds)
            index = self._choose_input()
            with self._tracer.span("pull"):
                pulled = self._sources[index].next_scored()
            if pulled is None:
                continue
            rho, sbar = pulled
            self._pulls += 1
            pulled_here += 1
            self._m_pulls[index].inc()
            if self._max_pulls is not None and self._pulls > self._max_pulls:
                raise PullBudgetExceeded(self._pulls, self._max_pulls)
            with self._tracer.span("join"):
                self._insert(index, rho)
            with self._tracer.span("bound"):
                if sbar is None:
                    sbar = self.score_bound(index, rho)
                self._t = self._bound_scheme.update(index, rho, sbar)
        if self._output:
            with self._tracer.span("emit"):
                self._emitted += 1
                self._m_emitted.inc()
                result = heapq.heappop(self._output)[2]
                self._history.append(result)
                return result
        return None

    def top_k(self, k: int) -> list[MultiwayResult]:
        """The first ``k`` results overall (resumable prefix, as in PBRJ)."""
        while len(self._history) < k:
            if self.get_next() is None:
                break
        return self._history[:k]

    @property
    def emitted_results(self) -> list[MultiwayResult]:
        """All results emitted so far (the retained resumable prefix)."""
        return self._history

    def __iter__(self):
        while True:
            result = self.get_next()
            if result is None:
                return
            yield result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_exhausted(self) -> None:
        for index in range(self._n):
            if not self._exhausted[index] and not self._sources[index].has_next():
                self._exhausted[index] = True
                self._t = self._bound_scheme.notify_exhausted(index)

    def _choose_input(self) -> int:
        """Potential-adaptive: the live input with the largest threshold.

        Ties break toward the smallest depth, then the smallest index —
        the same rule as the binary PA strategy.
        """
        live = [i for i in range(self._n) if not self._exhausted[i]]
        return min(
            live,
            key=lambda i: (
                -self._bound_scheme.potential(i),
                self._sources[i].depth,
                i,
            ),
        )

    def _insert(self, index: int, rho: RankTuple) -> None:
        """Buffer the tuple and emit all completions it participates in."""
        self._buffers[index].append(rho)
        left = self._left_attr(index)
        right = self._right_attr(index)
        if left is not None:
            self._by_left_attr[index].setdefault(
                self._attr_value(rho, left), []
            ).append(rho)
        if right is not None:
            self._by_right_attr[index].setdefault(
                self._attr_value(rho, right), []
            ).append(rho)
        for combo in self._complete(index, rho):
            score = self.scoring(tuple(s for t in combo for s in t.scores))
            result = MultiwayResult(tuple(combo), score)
            heapq.heappush(self._output, (-score, self._sequence, result))
            self._sequence += 1

    def _complete(self, index: int, rho: RankTuple):
        """All full chains through ``rho`` using buffered tuples."""
        lefts = self._extend_left(index, rho)
        rights = self._extend_right(index, rho)
        for left_part in lefts:
            for right_part in rights:
                yield left_part + [rho] + right_part

    def _extend_left(self, index: int, rho: RankTuple) -> list[list[RankTuple]]:
        """Partial chains covering relations ``0 .. index - 1``."""
        if index == 0:
            return [[]]
        attr = self._join_attrs[index - 1]
        value = self._attr_value(rho, attr)
        matches = self._by_right_attr[index - 1].get(value, ())
        chains = []
        for partner in matches:
            for prefix in self._extend_left(index - 1, partner):
                chains.append(prefix + [partner])
        return chains

    def _extend_right(self, index: int, rho: RankTuple) -> list[list[RankTuple]]:
        """Partial chains covering relations ``index + 1 .. n - 1``."""
        if index == self._n - 1:
            return [[]]
        attr = self._join_attrs[index]
        value = self._attr_value(rho, attr)
        matches = self._by_left_attr[index + 1].get(value, ())
        chains = []
        for partner in matches:
            for suffix in self._extend_right(index + 1, partner):
                chains.append([partner] + suffix)
        return chains

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def pulls(self) -> int:
        return self._pulls

    @property
    def bound_value(self) -> float:
        return self._bound()

    def depths(self) -> list[int]:
        """Tuples pulled from each input."""
        return [source.depth for source in self._sources]

    @property
    def sum_depths(self) -> int:
        return sum(self.depths())

    def timing(self):
        from repro.stats.metrics import TimingBreakdown

        return TimingBreakdown(
            io=self._tracer.seconds("pull"),
            bound=self._tracer.seconds("bound"),
            total=self._tracer.seconds("get_next"),
        )

    @property
    def tracer(self) -> Tracer:
        """The operator's span tracer (pull/join/bound/emit aggregates)."""
        return self._tracer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiwayRankJoin(n={self._n}, pulls={self._pulls})"


def multiway_rank_join(
    relations,
    join_attrs: Sequence[str],
    scoring: ScoringFunction,
    *,
    cost_model=None,
    **kwargs,
) -> MultiwayRankJoin:
    """Build a multiway operator from :class:`~repro.relation.Relation` s.

    Each relation is sorted in decreasing order of its multiway score bound
    (1-substitution for every other relation's attributes) and wrapped in a
    fresh single-pass scan.
    """
    from repro.relation.cost import CostModel
    from repro.relation.sources import SortedScan, sorted_access

    cost_model = cost_model or CostModel.clustered_index()
    dims = [rel.dimension for rel in relations]
    sources = []
    for index, rel in enumerate(relations):
        rows, order, bounds = sorted_access(scoring, dims, index, rel)
        sources.append(
            SortedScan(rows, order=order, bounds=bounds, cost_model=cost_model)
        )
    return MultiwayRankJoin(sources, join_attrs, scoring, **kwargs)
