"""FRPA, FRPA_RR and a-FRPA as a walk over per-side bound columns.

FR* is separable (DESIGN.md §5): input ``s``'s cover, seen maximum partial
and order bound depend on its own depth only, so for additive ``S`` the
bound is ``max(min(C_L + S_R, g_L), min(S_L + C_R, g_R), min(C_L + C_R,
g_L, g_R))`` — Table 1's cached components, bit for bit.  PA's potentials
read both depths: the schedule is a scalar walk, as far as the loop pulls.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.bounds import POS_INF
from repro.core.corner import ArrayRankJoin
from repro.core.frstar_bound import FRStarBound
from repro.core.pbrj import SCORE_EPS
from repro.core.pulling import PullingStrategy
from repro.core.scoring import NEG_INF
from repro.core.stepping import PENDING
from repro.relation.relation import RankJoinInstance

#: Rows a side's columns grow by.
BLOCK = 256


def _components(cover_best, seen_best, t_both: float, g) -> tuple[float, ...]:
    """FR*'s ``(t0, t1, t_both, t)`` from the per-side maxima and order bounds."""
    t0 = min(cover_best[0] + seen_best[1], g[0])
    t1 = min(seen_best[0] + cover_best[1], g[1])
    tb = min(t_both, g[0], g[1])
    return t0, t1, tb, max(t0, t1, tb)


class FeasibleRankJoin(ArrayRankJoin):
    """FRPA, FRPA_RR or a-FRPA (``bound`` an :class:`FRStarBound`) over an
    instance with an additive scoring; ``options`` are PBRJ's keywords.

    A pull is a choice, a few column reads and one call, the bound's side
    step (at e=2 :func:`~repro.geometry.antichain.staircase_step`): one
    seen-skyline insert and, when ``S̄`` drops, one group-close carve.  The join is
    per-key counts until a pull may find a pair reaching ``t`` (a pair scores
    its two partials' sum up to rounding); then the pending pairs are joined
    and scored by :class:`~repro.core.corner.ArrayRankJoin`."""

    def __init__(self, instance: RankJoinInstance, bound: FRStarBound,
                 strategy: PullingStrategy, *, name: str, **options) -> None:
        super().__init__(instance, bound, strategy, name=name, **options)
        # Per side over the walked prefix: S̄, closes a group, partial score,
        # key code, score vector.
        self._columns = [(array("d"), bytearray(), array("d"), array("q"), [])
                         for _ in (0, 1)]
        self._depth, self._start = [0, 0], [0, 0]  # and the open group's first
        self._cover_best, self._seen_best = [cover.best for cover in bound._cr], [NEG_INF] * 2
        self._t_both = bound._t_cover[-1]  # S(1…1) until a group closes
        # Per side and key code: tuples pulled, their best partial score.
        self._count = [array("q", [0]) * (self._keys + 1) for _ in (0, 1)]
        self._peak = [array("d", [NEG_INF]) * (self._keys + 1) for _ in (0, 1)]
        self._at = (array("q"), array("q"))  # each pulled tuple's pull number
        # Pairs found (joined or not), an upper bound on the unjoined ones,
        # the best unemitted joined one, and the pull count joined up to.
        self._found, self._pending, self._top, self._joined = 0, NEG_INF, NEG_INF, 0
        self._last_side = 1  # round-robin starts on the left

    def _advance(self, pull_quantum: int | None):
        with self._tracer.span("bound"):
            stopped = self._walk(pull_quantum)
        with self._tracer.span("pull"):
            self._charge(self._depth)
        if not stopped:
            return PENDING
        with self._tracer.span("emit"):
            return self._emit()

    def _walk(self, quantum: int | None) -> bool:
        """Pull as the loop would: True at the loop head where it stops (a
        result reaches ``t``, or every input is exhausted), False once
        ``quantum`` pulls are spent."""
        bound, trace, adaptive = self._bound, self._trace, self._adaptive
        g, depth, size, start = bound._g, self._depth, self._n, self._start
        cover_best, seen_best, exhausted = self._cover_best, self._seen_best, self._exhausted
        columns, count, peak, at = self._columns, self._count, self._peak, self._at
        seens, covers, steps = bound._seen, bound._cr, bound._steps
        pulls, found, emitted, top = self._pulls, self._found, self._emitted, self._top
        pending, t_both, last = self._pending, self._t_both, self._last_side
        limit = None if quantum is None else pulls + quantum
        begun, changes, closes, drained = pulls, 0, 0, False
        for side in (0, 1):  # the loop head: a drained input is exhausted
            if not exhausted[side] and depth[side] == size[side]:
                exhausted[side], g[side], drained = True, NEG_INF, True
        t0, t1, tb, t = _components(cover_best, seen_best, t_both, g)
        stopped = True
        while True:
            if found > emitted:
                if pending >= t - 2 * SCORE_EPS:  # a pair not joined yet may reach t
                    self._pulls, self._found = pulls, found
                    self._known()
                    pending, top = NEG_INF, self._top
                if top >= t - SCORE_EPS:
                    break
            if exhausted[0] and exhausted[1]:
                break
            if exhausted[0] or exhausted[1]:
                side = int(exhausted[0])
            elif adaptive:
                p0 = t0 if t0 > tb else tb
                p1 = t1 if t1 > tb else tb
                # Ties go to the lesser depth, then to the left.
                side = int(p1 > p0) if p0 != p1 else int(depth[1] < depth[0])
            else:
                side = 1 - last
            if pulls == limit:
                stopped = False
                break
            last = side
            other = 1 - side
            sbar, close, partial, code, vectors = columns[side]
            i = depth[side]
            if i == len(sbar):
                self._grow(side)
            depth[side] = i + 1
            pulls += 1
            at[side].append(pulls)
            key, score = code[i], partial[i]
            partners = count[other][key]
            if partners:
                found += partners
                if score + peak[other][key] > pending:
                    pending = score + peak[other][key]
            count[side][key] += 1
            if score > peak[side][key]:
                peak[side][key] = score
            group = vectors[start[side]:i] if close[i] else None
            moved = steps[side](seens[side], vectors[i], covers[side], group)
            if moved:  # SHR_side changed: Table 1 refreshes t_other
                seen_best[side] = seens[side].best
                changes += 1
            if group is not None:  # a group closed: CR_side, t_side and t_both
                cover_best[side] = covers[side].best
                t_both = cover_best[0] + cover_best[1]
                g[side], start[side] = sbar[i], i
                closes += 1
                moved = True
            if moved:  # _components, inline and without min/max: most pulls
                t0 = cover_best[0] + seen_best[1]
                t0 = g[0] if g[0] < t0 else t0
                t1 = seen_best[0] + cover_best[1]
                t1 = g[1] if g[1] < t1 else t1
                tb = g[0] if g[0] < t_both else t_both
                tb = g[1] if g[1] < tb else tb
                t = t1 if t1 > t0 else t0
                t = tb if tb > t else t
            if trace is not None:
                trace.record(pulls, side, t, found - emitted, emitted)
            if i + 1 == size[side]:  # so the next loop head finds it exhausted
                exhausted[side], g[side], drained = True, NEG_INF, True
                t0, t1, tb, t = _components(cover_best, seen_best, t_both, g)
        self._pulls, self._found, self._pending = pulls, found, pending
        self._t_both, self._last_side = t_both, last
        if pulls > begun or drained:  # else the bound reads what it read
            self._t, bound._bound, bound._components = t, t, (t0, t1, tb)
        bound._recomputations += changes + 2 * closes  # Table 1's misses
        return stopped

    def _grow(self, side: int) -> None:
        """Extend ``side``'s columns by the next :data:`BLOCK` of its order."""
        sbar, close, partial, code, vectors = self._columns[side]
        done = len(sbar)
        order = self._order[side][done:done + BLOCK]
        bounds = self._bounds[side][done:done + BLOCK]
        # The partial score: S on the row with 0 for the other input's scores.
        widths = [matrix.shape[1] for matrix in self._matrix]
        partials = self.scoring.padded_batch(
            self._matrix[side][order], side * widths[0], sum(widths)
        )
        previous = np.concatenate(([sbar[-1] if done else POS_INF], bounds[:-1]))
        close += (bounds < previous).tobytes()  # columns grow by their raw bytes
        sbar.frombytes(bounds.tobytes())
        partial.frombytes(partials.tobytes())
        code.frombytes(self._codes[side][order].astype(np.int64).tobytes())
        rows = self._rows[side]
        vectors += [rows[row].scores for row in order.tolist()]

    def _known(self) -> int:
        if self._found > len(self._live):  # join the pairs found since
            with self._tracer.span("join"):
                scores = self._join([np.array(at) for at in self._at], self._joined)
            self._joined, self._pending = self._pulls, NEG_INF
            if len(scores):
                self._top = max(self._top, float(scores.max()))
        return len(self._live)

    def best_buffered(self) -> float:
        if self._pending + SCORE_EPS <= self._top:  # nothing unjoined beats it
            return self._top
        return super().best_buffered()

    def _emit(self):
        result = super()._emit()
        self._top = float(self._live.max()) if len(self._live) else NEG_INF
        return result
