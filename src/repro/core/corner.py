"""HRJN and HRJN* as array passes over prepared sorted access.

:class:`ArrayRankJoin` is :class:`~repro.core.pbrj.PBRJ` over a prepared
instance without the pull loop; a subclass schedules the pulls (FR*'s is
:mod:`repro.core.feasible`).  The pulled prefixes' key-code equi-join comes
in (discovery pull, partner pull) order — the loop's heap sequence — scored
by one exact ``scoring.batch``; emission takes the best unemitted result
(an exact tie by :func:`~repro.core.pbrj.order_tie`), and the inputs are
charged for the loop's pulls only.
:class:`CornerRankJoin`: input ``s``'s corner potential before its pull
``i`` is ``S̄_s[i-1]`` whatever the other input holds, so PA's pull order
is the merge ``lexsort((side, i, -key))`` and round-robin's ``lexsort((side,
i))`` (DESIGN.md §5).  The schedule doubles until it holds the next
emission, reading ahead in memory only.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import POS_INF, BoundingScheme, CornerBound
from repro.core.pbrj import PBRJ, order_tie, releasable
from repro.core.pulling import PotentialAdaptive, PullingStrategy
from repro.core.scoring import NEG_INF
from repro.core.stepping import PENDING
from repro.core.tuples import JoinResult
from repro.relation.relation import KEY_ATTR, RankJoinInstance

#: Pulls the first read-ahead schedules; each further one doubles them.
FIRST_WINDOW = 64


def equijoin(left: np.ndarray, right: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` with ``left[i] == right[j]``, by ``i`` then
    ``j``: codes in ``[0, size]``, ``size`` on one side at most (no match);
    ``right`` is the side sorted."""
    order = right.argsort(kind="stable")
    counts = np.bincount(right, minlength=size + 1)
    low = counts.cumsum() - counts
    probes = counts[left].nonzero()[0]  # the left rows with a partner
    codes = left[probes]
    counts, low = counts[codes], low[codes]
    starts = counts.cumsum() - counts
    matches = np.arange(counts.sum()) - (starts - low).repeat(counts)
    return probes.repeat(counts), order[matches]


class ArrayRankJoin(PBRJ):
    """PBRJ over ``instance``'s prepared arrays: a subclass replaces
    ``_advance`` and says how many joined pairs its pulls have found
    (``_known()``); ``options`` are :class:`PBRJ`'s."""

    def __init__(self, instance: RankJoinInstance, bound: BoundingScheme,
                 strategy: PullingStrategy, *, name: str, **options) -> None:
        super().__init__(instance.scans(), instance.scoring, bound, strategy,
                         name=name, **options)
        self._adaptive = isinstance(strategy, PotentialAdaptive)
        self._rows, self._order, self._bounds = zip(*map(instance.access, (0, 1)))
        self._n = tuple(map(len, self._order))
        self._matrix = (instance.left.scored()[1], instance.right.scored()[1])
        # One code space; a right key no left row has is ``self._keys``.
        self._keys, *codes = instance.left.joint_key_codes(instance.right, (KEY_ATTR,))
        self._codes = tuple(codes)
        # The pairs joined so far, in heap order: discovery pull, score
        # (-inf once emitted), rows.
        self._discovered, self._live = np.empty(0, np.intp), np.empty(0)
        self._pairs = (np.empty(0, np.intp),) * 2
        self._tie, self._tied = [], None  # a released tie's rest (last first), its rows

    def _join(self, pulled, since: int) -> np.ndarray:
        """Join the first ``len(pulled[s])`` tuples of each input —
        ``pulled[s]`` their ascending pull numbers, ``1 … Σ len`` between
        them — and append the pairs discovered after pull ``since`` in heap
        order; returns their scores.  Mostly new rows (a doubled window):
        one join of the prefixes.  Mostly old (a walk's next join): the new
        left rows against the right prefix and the old left rows against
        the new right ones, the few new rows as :func:`equijoin`'s sorted
        side, so a large K re-sorts no prefix."""
        left, right = (codes[order[:len(at)]] for codes, order, at
                       in zip(self._codes, self._order, pulled))
        if 2 * since < len(left) + len(right):
            pairs = equijoin(left, right, self._keys)
        else:
            old = [int(at.searchsorted(since, "right")) for at in pulled]
            j, i = equijoin(right, left[old[0]:], self._keys)
            i_old, j_new = equijoin(left[:old[0]], right[old[1]:], self._keys)
            pairs = np.concatenate((i + old[0], i_old)), np.concatenate((j, j_new + old[1]))
        at = [numbers[index] for numbers, index in zip(pulled, pairs)]
        found, partner = np.maximum(*at), np.minimum(*at)
        fresh = np.flatnonzero(found > since)
        span = len(pulled[0]) + len(pulled[1]) + 1
        fresh = fresh[np.argsort(found[fresh] * span + partner[fresh])]
        if not len(fresh):
            return np.empty(0)
        pairs = [index[fresh] for index in pairs]
        scores = self.scoring.batch(np.hstack([
            matrix[order[index]] for matrix, order, index in zip(self._matrix, self._order, pairs)]))
        self._live = np.concatenate((self._live, scores))
        self._pairs = tuple(map(np.concatenate, zip(self._pairs, pairs)))
        self._discovered = np.concatenate((self._discovered, found[fresh]))
        return scores

    def _charge(self, depths) -> None:
        """The loop's reads up to ``depths``, without handing out the tuples."""
        for side, (depth, source) in enumerate(zip(depths, self._sources)):
            count = int(depth) - source.depth
            if count:
                source.stats.charge(source.cost_model, count)
            self._pull_tally[side] += count

    def _emit(self):
        found = self._known()  # first: a join replaces ``_live``
        if not self._tie:
            live = self._live[:found]
            best = int(np.argmax(live)) if len(live) else -1
            if best < 0 or live[best] == NEG_INF:
                return None  # every input exhausted, every result out
            # The rule has buffered the whole exact tie; it leaves from ``_tie``.
            self._tied = (live == live[best]).nonzero()[0]
            self._tie = order_tie([JoinResult.combine(tuple(
                self._rows[side][self._order[side][pairs[index]]]
                for side, pairs in enumerate(self._pairs)), float(live[index]))
                for index in self._tied.tolist()])
        result = self._tie.pop()
        if not self._tie:
            self._live[self._tied] = NEG_INF
        self._emitted += 1
        self._m_emitted.inc()
        self._history.append(result)
        return result

    def best_buffered(self) -> float:
        found = self._known()
        live = self._live[:found]
        return float(live.max()) if len(live) else NEG_INF


class CornerRankJoin(ArrayRankJoin):
    """HRJN (``RoundRobin``) or HRJN* (``PotentialAdaptive``) over an
    instance's prepared arrays; ``options`` are :class:`PBRJ`'s keywords."""

    def __init__(self, instance: RankJoinInstance, strategy: PullingStrategy,
                 *, name: str = "HRJN*", **options) -> None:
        super().__init__(instance, CornerBound(), strategy, name=name, **options)
        # By depth: thr_s, the S̄ of the last pull, and the potential (-inf exhausted).
        self._last = [np.concatenate(([POS_INF], b)) for b in self._bounds]
        self._cap = [np.append(last[:n], NEG_INF) for last, n in zip(self._last, self._n)]
        # The schedule, ``t`` and results found after p pulls.
        self._window, self._side = 0, np.empty(0, np.int8)
        self._depth = (np.zeros(1, np.intp),) * 2
        self._t_at, self._found = np.full(1, POS_INF), np.zeros(1, np.intp)
        self._event: int | None = None  # the next emission's pull count

    def _known(self) -> int:
        return int(self._found[self._pulls])

    def _advance(self, pull_quantum: int | None):
        if self._event is None:
            self._event = self._next_event()
        target = self._event
        if pull_quantum is not None:
            target = min(target, self._pulls + pull_quantum)
        if target > self._pulls:
            self._commit(target)
        self._refresh(self._pulls)
        if self._pulls < self._event:
            return PENDING
        self._event = None
        with self._tracer.span("emit"):
            return self._emit()

    def _next_event(self) -> int:
        """The first pull count from here at which the loop stops pulling."""
        while True:
            pulls = self._pulls
            with self._tracer.span("emit"):
                best = np.concatenate(([NEG_INF], np.maximum.accumulate(self._live)))
                t = self._t_at[pulls:]  # -inf once every input is exhausted
                hits = np.flatnonzero(releasable(best[self._found[pulls:]], t, t == NEG_INF))
            if len(hits):
                return pulls + int(hits[0])
            self._extend()

    def _extend(self) -> None:
        """Schedule twice as many pulls (or all of them) and join them."""
        with self._tracer.span("bound"):
            lengths = [min(n, max(2 * self._window, FIRST_WINDOW)) for n in self._n]
            side = np.repeat(np.arange(2, dtype=np.int8), lengths)
            order = np.lexsort((side, np.concatenate([np.arange(n) for n in lengths])))
            if self._adaptive:  # stable: ties keep round-robin's (i, side) order
                key = np.concatenate([c[:n] for c, n in zip(self._cap, lengths)])
                order = order[np.argsort(-key[order], kind="stable")]
            side = side[order]
            # Merged prefixes are the merged inputs up to a cut prefix's end.
            cut = [s for s in (0, 1) if lengths[s] < self._n[s]]
            window = min([len(side)] + [1 + int(np.flatnonzero(side == s)[-1]) for s in cut])
            side = side[:window]
            left = np.concatenate(([0], np.cumsum(side == 0)))
            depth = (left, np.arange(window + 1) - left)
            self._t_at = np.maximum(self._cap[0][left], self._cap[1][depth[1]])
        with self._tracer.span("join"):
            self._join([np.flatnonzero(side == s) + 1 for s in (0, 1)], self._window)
            self._found = np.cumsum(np.bincount(self._discovered, minlength=window + 1))
        self._window, self._side, self._depth = window, side, depth

    def _commit(self, target: int) -> None:
        """Make the pulls up to ``target`` as the loop would: charge the
        inputs, then book the trace rows."""
        start = self._pulls
        with self._tracer.span("pull"):
            self._charge([depth[target] for depth in self._depth])
            if self._trace is not None:
                self._record(start, target)
            self._pulls = target

    def _record(self, start: int, done: int) -> None:
        """The trace rows of pulls ``start + 1 .. done``."""
        pulls = np.arange(start + 1, done + 1)
        side = self._side[start:done]
        left, right = (d[pulls] for d in self._depth)
        own = np.where(side == 0, self._last[0][left], self._last[1][right])
        other = np.where(side == 0, self._cap[1][right], self._cap[0][left])
        for row in zip(pulls.tolist(), side.tolist(), np.maximum(own, other).tolist(),
                       (self._found[pulls] - self._emitted).tolist()):
            self._trace.record(*row, self._emitted)

    def _refresh(self, pulls: int) -> None:
        """The loop-head state after ``pulls`` pulls: thresholds, exhaustion, ``t``."""
        thresholds = [float(cap[depth[pulls]]) for cap, depth in zip(self._cap, self._depth)]
        self._bound._thr = thresholds  # the scheme this operator evaluates, kept current
        self._exhausted = [thr == NEG_INF for thr in thresholds]
        self._t = max(thresholds)
