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
   (changing ``CR_i`` and ``g_i``).  Everything else is reused.  Over ``n``
   inputs that is one rule: a change of ``SHR_i`` refreshes the cases that
   read input ``i`` as seen, a group close the cases that read ``CR_i``.

3. **Patch, don't recompute — and no array on the way.**  What a pull did
   invalidate is refreshed in O(Δ): covers and seen skylines are list-native
   scored antichains (:mod:`repro.geometry.antichain`), the skyline insert is
   one loop, the carve one kernel call whose delta is applied in place with
   the kept partial scores carried over — at e=2, where an antichain is a
   sorted staircase, each is a bisection and one slice, made straight on the
   lists by one function call per pull
   (:func:`~repro.geometry.antichain.staircase_step`) that the loop and the
   walk share — and for additive ``S`` a cover bound is the left-to-right
   sum of the operands' maintained maxima — the cross product's bits
   (DESIGN.md §5).

The result is bit-identical bound values to FR (Theorem 4.1's tightness is
preserved) at a fraction of the computation.  FR* takes any number of
inputs (the n-ary rank join of Section 2.1) under an additive ``S``; a
non-additive one it takes over two, through the cross product.
"""

from __future__ import annotations

from repro.core.bounds import BoundContext
from repro.core.fr_bound import FRBound
from repro.core.scoring import NEG_INF
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.geometry.antichain import staircase_step
from repro.geometry.dominance import ones
from repro.geometry.skyline import IncrementalSkyline
from repro.kernels.types import dimension_mismatch


class FRStarBound(FRBound):
    """Skyline-optimized, cached feasible-region bound."""

    scheme_name = "FR*"

    def __init__(self) -> None:
        super().__init__(prune_covers=True)

    def bind(self, context: BoundContext) -> None:
        super().bind(context)
        self._cover_max = context.scoring.cover_max
        self._t_cover[-1] = context.scoring(ones(sum(context.dims)))  # S(1…1)
        #: Each side's step: the staircase's one call at e=2, else the loops.
        self._steps = [staircase_step if e == 2 else _loop_step for e in context.dims]

    def _check_arity(self, context: BoundContext) -> None:
        """Beyond two inputs a cover bound is a sum of maxima, not a cross
        product: ``S`` must be additive."""
        additive = context.scoring.row_weights(0, sum(context.dims)) is not None
        if len(context.dims) > 2 and not additive:
            raise InstanceError(
                f"the {self.scheme_name} bound over {len(context.dims)} inputs "
                "requires an additive scoring function"
            )

    def _make_seen(self, side: int, offset: int) -> IncrementalSkyline:
        """Cover bounds over skylines only (the FR* redefinition): the seen
        operand is ``SHR_i``, maintained incrementally, scored row by row."""
        assert self.context is not None
        dimension = self.context.dims[side]
        return IncrementalSkyline(
            weights=self.context.scoring.row_weights(offset, dimension),
            dimension=dimension,
        )

    # ------------------------------------------------------------------
    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        assert self.context is not None, "bind() must be called first"
        point = tup.scores
        if len(point) != self.context.dims[side]:
            raise dimension_mismatch("skyline", self.context.dims[side], len(point))
        group = self._absorb(side, point, score_bound)
        # Decision matrix (Table 1): refresh only the invalidated cases.
        if self._step(side, point, group):
            self._refresh(self._by_seen[side])
        if group is not None:
            self._refresh(self._by_cover[side])
        return self._recombine()

    def _step(self, side: int, point, group: list | None) -> bool:
        """One pull's side work, shared by the loop (:meth:`update`) and the
        walk (:class:`~repro.core.feasible.FeasibleRankJoin`): insert
        ``point`` into ``SHR_side`` and, when its pull closed ``group``,
        carve that group out of ``CR_side`` — at e=2 one call,
        :func:`~repro.geometry.antichain.staircase_step`.  True iff
        ``SHR_side`` changed."""
        return self._steps[side](self._seen[side], point, self._cr[side], group)

    def notify_exhausted(self, side: int) -> float:
        self._lower(side, NEG_INF)
        return self._recombine()

    @property
    def seen_skyline_sizes(self) -> tuple[int, ...]:
        """Current ``(|SHR_1|, …, |SHR_n|)`` — early-freeze diagnostics."""
        return tuple(len(seen) for seen in self._seen)


def _loop_step(seen, point, cover, group) -> bool:
    """``staircase_step`` off the staircase (e ≠ 2): the scan, then ``cut``."""
    moved = seen.insert(point)
    if group is not None:
        cover.cut(group)
    return moved
