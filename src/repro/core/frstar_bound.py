"""The FR* bound: the fast feasible-region bound of FRPA (Section 4.2.1).

FR* keeps the tightness of FR while attacking its two cost sources:

1. **Skylines everywhere.**  Cover bounds are computed over ``SL(CR_i)`` and
   ``SL(b[HR_i])`` instead of the raw sets — monotonicity of ``S`` makes this
   lossless.  The seen-side skyline ``SHR_i`` is maintained incrementally
   and benefits from the *early freeze* property (dominating tuples arrive
   first under decreasing-``S̄`` access).
2. **Caching via the decision matrix (Table 1).**  A pulled tuple ``ρ_i``
   can invalidate ``t_ī^cover`` only if it changed ``SHR_i``, and can
   invalidate ``t_i^cover`` / ``t_both^cover`` only if it closed a group
   (changing ``CR_i`` and ``g_i``).  Everything else is reused.

3. **Patch, don't recompute — and no array on the way.**  What a pull did
   invalidate is refreshed in O(Δ): covers and seen skylines are list-native
   scored antichains (:mod:`repro.geometry.antichain`), the skyline insert is
   one loop, the carve one kernel call whose delta is applied in place with
   the kept partial scores carried over — at e=2, where an antichain is a
   sorted staircase, each is a bisection and one slice, made straight on the
   lists by one per-pull step (:meth:`FRStarBound._step`) that the loop and
   the walk share — and for additive ``S`` a cover bound is the sum of two
   maintained maxima — the cross product's bits (DESIGN.md §5).

The result is bit-identical bound values to FR (Theorem 4.1's tightness is
preserved) at a fraction of the computation.
"""

from __future__ import annotations

from repro.core.bounds import LEFT, RIGHT, POS_INF, BoundContext
from repro.core.fr_bound import FRBound
from repro.core.scoring import NEG_INF
from repro.core.tuples import RankTuple
from repro.geometry.dominance import ones
from repro.geometry.skyline import IncrementalSkyline
from repro.kernels.types import dimension_mismatch
from repro.obs.metrics import NULL_METRIC, MetricRegistry


class FRStarBound(FRBound):
    """Skyline-optimized, cached feasible-region bound."""

    scheme_name = "FR*"

    def __init__(self) -> None:
        super().__init__(prune_covers=True)
        self._t_cover = [NEG_INF, NEG_INF]
        self._t_both_cover = POS_INF
        #: The grid each cover was last seen on (only aFR's covers move).
        self._grids: list[int | None] = [None, None]
        self._updates = 0  # pulls since the last flush: 3 cache reads each
        self._m_cache_hit = NULL_METRIC
        self._m_cache_miss = NULL_METRIC

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        super().observe(metrics, op)
        self._m_cache_hit = metrics.counter(
            "bound_cache_total", op=op, scheme=self.scheme_name, outcome="hit"
        )
        self._m_cache_miss = metrics.counter(
            "bound_cache_total", op=op, scheme=self.scheme_name, outcome="miss"
        )

    def flush(self) -> None:
        misses = self._recomputations - self._booked  # one per recomputation
        self._m_cache_miss.inc(misses)
        self._m_cache_hit.inc(3 * self._updates - misses)
        self._updates = 0
        super().flush()

    def bind(self, context: BoundContext) -> None:
        super().bind(context)
        self._t_both_cover = context.combine(
            ones(context.dims[LEFT]), ones(context.dims[RIGHT])
        )

    def _make_seen(self, side: int, offset: int) -> IncrementalSkyline:
        """Cover bounds over skylines only (the FR* redefinition): the seen
        operand is ``SHR_i``, maintained incrementally, scored row by row."""
        assert self.context is not None
        return IncrementalSkyline(
            score=self.context.scoring.row_scorer(offset),
            dimension=self.context.dims[side],
        )

    # ------------------------------------------------------------------
    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        assert self.context is not None, "bind() must be called first"
        point = tup.scores
        if len(point) != self.context.dims[side]:
            raise dimension_mismatch("skyline", self.context.dims[side], len(point))
        group = self._absorb(side, point, score_bound)
        skyline_changed = self._step(side, point, group)
        group_closed = group is not None
        other = 1 - side
        # Decision matrix (Table 1): recompute only invalidated components.
        # Of the three cached components (t_cover[0], t_cover[1],
        # t_both_cover), a pull invalidates the other side's cover bound on
        # a skyline change and this side's plus t_both on a group close.
        self._updates += 1
        if skyline_changed:
            self._t_cover[other] = self._cover_bound(other)
        if group_closed:
            self._t_cover[side] = self._cover_bound(side)
            self._t_both_cover = self._both_cover_bound()
        self._bound = self._recombine()
        return self._bound

    def _step(self, side: int, point, group: list | None) -> bool:
        """One pull's side work, shared by the loop (:meth:`update`) and the
        walk (:class:`~repro.core.feasible.FeasibleRankJoin`): insert
        ``point`` into ``SHR_side`` and, when its pull closed ``group``,
        carve that group out of ``CR_side`` — at e=2 one bisection and one
        slice each, straight on the side's lists.  True iff ``SHR_side``
        changed."""
        moved = self._seen[side].insert(point)
        if group is not None:
            cover = self._cr[side]
            cover.cut(group)
            if self._sizes is not None:
                self._sizes[side].append(len(cover._points))
            if cover.resolution != self._grids[side]:
                self._regrid(side, cover)
        return moved

    def notify_exhausted(self, side: int) -> float:
        self._g[side] = NEG_INF
        self._bound = self._recombine()
        return self._bound

    # ------------------------------------------------------------------
    def _pair_max(self, left, right) -> float:
        """The cross-product maximum without the cross product where ``S``
        allows: two maintained maxima for additive ``S``, same bits."""
        assert self.context is not None
        return self.context.scoring.cover_max(left, right)

    def _recombine(self) -> float:
        """Assemble the bound from cached covers and current order bounds."""
        t0 = min(self._t_cover[LEFT], self._g[LEFT])
        t1 = min(self._t_cover[RIGHT], self._g[RIGHT])
        t_both = min(self._t_both_cover, min(self._g[LEFT], self._g[RIGHT]))
        self._components = (t0, t1, t_both)
        return max(t0, t1, t_both)

    # FR* never calls the eager full recomputation of the parent class.
    def _result_bound(self) -> float:  # pragma: no cover - defensive
        raise AssertionError("FR* recombines cached components; see update()")

    @property
    def seen_skyline_sizes(self) -> tuple[int, int]:
        """Current ``(|SHR_1|, |SHR_2|)`` — early-freeze diagnostics."""
        return (len(self._seen[LEFT]), len(self._seen[RIGHT]))
