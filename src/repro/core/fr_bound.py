"""The original feasible-region (FR) bound of PBRJ_FR^RR (Section 4.1).

The FR bound maintains, per input ``R_i``:

* ``CR_i`` — an exact cover of the score vectors of the unseen tuples,
* ``G_i`` — the current *group* of seen tuples sharing score bound ``g_i``,
* ``g_i`` — the score bound of the last accessed tuple.

When a tuple with a strictly smaller score bound arrives, the finished
group's vectors certify carved regions and ``CR_i`` is updated.  The bound
is the maximum of three cases for an undiscovered result ``τ1 ⋈ τ2``
(Figure 3): unseen-right (``t_2``), unseen-left (``t_1``), both unseen
(``t_both``); each case takes the minimum of a *cover bound* (cross-product
maximum over covers / seen vectors) and an *order bound* (the ``g_i``).

This implementation keeps the paper's cost profile: every ``update``
recomputes all three cover bounds as **full cross products over all seen
tuples** — the combinatorial complexity the empirical study in Section 3.2
blames for PBRJ_FR^RR's poor wall-clock behaviour.  Two measure-preserving
engineering concessions to pure Python (documented in DESIGN.md):

* Covers are pruned to their skyline by default (``prune_covers=True``).
  Dominated cover points can never attain the cross-product maximum under a
  monotone ``S``, so bound values — and therefore operator depths — are
  bit-identical (the test suite verifies this equivalence).  Set
  ``prune_covers=False`` for the literal unpruned pseudo-code.
* Cross-product operands are cached as *prepared* operands over columnar
  :class:`~repro.kernels.PointSet` storage, so each recomputation is one
  O(n·m) batch kernel call (:func:`repro.kernels.cross_product_max`)
  instead of a Python loop, mirroring the paper's compiled C++ constants.
  The "seen" operands alias the operator's shared score columns
  (:attr:`~repro.core.bounds.BoundContext.columns`) when available and
  sync incrementally via the column's mutation stamp; the cover operands
  alias their cover's columnar store the same way, so a carve reaches
  them as one patch (a cover that has left it for the grid is copied in).
"""

from __future__ import annotations

from repro.core.bounds import LEFT, RIGHT, POS_INF, BoundContext, BoundingScheme
from repro.core.scoring import NEG_INF, PreparedPoints
from repro.core.tuples import RankTuple
from repro.geometry.cover import CoverRegion, cover_operand
from repro.kernels import PointSet
from repro.obs.metrics import NULL_METRIC, MetricRegistry


class FRBound(BoundingScheme):
    """The tight (and deliberately slow) feasible-region bound."""

    scheme_name = "FR"

    def __init__(self, *, prune_covers: bool = True) -> None:
        super().__init__()
        self.prune_covers = prune_covers
        self._cr: list = []
        self._group: list[list[tuple[float, ...]]] = [[], []]
        self._g: list[float] = [POS_INF, POS_INF]
        self._seen_cols: tuple[PointSet, PointSet] = (PointSet(), PointSet())
        self._owns_columns = True
        self._seen_prep: list[PreparedPoints | None] = [None, None]
        self._cr_prep: list[PreparedPoints | None] = [None, None]
        self._components: dict[str, float] = {}
        self._bound = POS_INF
        self._recomputations = 0
        self._m_recompute = NULL_METRIC
        self._m_cover_size = (NULL_METRIC, NULL_METRIC)

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        self._m_recompute = metrics.counter(
            "bound_recompute_total", op=op, scheme=self.scheme_name
        )
        self._m_cover_size = (
            metrics.histogram("cover_size", op=op, side="left"),
            metrics.histogram("cover_size", op=op, side="right"),
        )

    def bind(self, context: BoundContext) -> None:
        super().bind(context)
        self._cr = [
            CoverRegion(context.dims[LEFT], skyline_mode=self.prune_covers),
            CoverRegion(context.dims[RIGHT], skyline_mode=self.prune_covers),
        ]
        if context.columns is not None:
            self._seen_cols = (context.columns[LEFT], context.columns[RIGHT])
            self._owns_columns = False
        self._rebind_prepared()

    def _rebind_prepared(self) -> None:
        """(Re)build the prepared operand caches from current state."""
        assert self.context is not None
        offsets = (0, self.context.dims[LEFT])
        for side in (LEFT, RIGHT):
            self._seen_prep[side] = self.context.scoring.prepare(
                offset=offsets[side], source=self._seen_cols[side]
            )
            self._cr_prep[side] = None
            self._sync_cover_operand(side)

    def _sync_cover_operand(self, side: int) -> None:
        """Alias a columnar cover's store — a carve then reaches the operand
        as a patch, through the stamp — or copy a grid-mode cover's points."""
        assert self.context is not None
        operand = cover_operand(self._cr[side])
        prep = self._cr_prep[side]
        columnar = isinstance(operand, PointSet)
        if prep is None or (
            prep.pointset is not operand if columnar else prep.aliased
        ):
            prep = self._cr_prep[side] = self.context.scoring.prepare(
                offset=(0, self.context.dims[LEFT])[side],
                source=operand if columnar else None,
            )
        if not columnar:
            prep.replace(operand)

    # ------------------------------------------------------------------
    # Bookkeeping shared with subclasses
    # ------------------------------------------------------------------
    def _absorb(self, side: int, tup: RankTuple, sbar: float | None) -> bool:
        """Fold a pulled tuple into groups/covers; True iff a group closed."""
        assert self.context is not None
        if sbar is None:
            sbar = self.context.score_bound(side, tup.scores)
        if sbar < self._g[side]:
            self._cr[side].update(self._group[side])
            self._sync_cover_operand(side)
            self._m_cover_size[side].observe(len(self._cr[side]))
            self._g[side] = sbar
            self._group[side] = [tup.scores]
            closed = True
        else:
            self._group[side].append(tup.scores)
            closed = False
        if self._owns_columns:
            # Shared columns are appended by the operator before update();
            # standalone bounds maintain their own.  Either way the prepared
            # operand re-syncs lazily from the column's stamp.
            self._seen_cols[side].append(tup.scores)
        return closed

    # ------------------------------------------------------------------
    # BoundingScheme API
    # ------------------------------------------------------------------
    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        assert self.context is not None, "bind() must be called first"
        self._absorb(side, tup, score_bound)
        self._bound = self._result_bound()
        return self._bound

    def current(self) -> float:
        return self._bound

    def potential(self, side: int) -> float:
        """``pot_i = max(t_i, t_both)`` — score potential of input ``side``."""
        t_side = self._components.get(f"t{side}", POS_INF)
        t_both = self._components.get("t_both", POS_INF)
        return max(t_side, t_both)

    def notify_exhausted(self, side: int) -> float:
        self._g[side] = NEG_INF
        self._bound = self._result_bound()
        return self._bound

    @property
    def cover_recomputations(self) -> int:
        return self._recomputations

    @property
    def cover_sizes(self) -> tuple[int, int]:
        """Current ``(|CR_1|, |CR_2|)`` — the paper's complexity driver."""
        return (len(self._cr[LEFT]), len(self._cr[RIGHT]))

    @property
    def components(self) -> dict[str, float]:
        """Last computed bound components (t0, t1, t_both)."""
        return dict(self._components)

    # ------------------------------------------------------------------
    # Bound computation (Figure 3, Function FR::ResultBound)
    # ------------------------------------------------------------------
    def _pair_max(self, left: PreparedPoints, right: PreparedPoints) -> float:
        """``max S(c1 ⊕ c2)`` as the literal cross product — the cost the
        paper's Figure 2 measures on PBRJ_FR^RR; FR* overrides this."""
        assert self.context is not None
        return self.context.scoring.max_prepared(left, right)

    def _seen_operand(self, side: int) -> PreparedPoints:
        """The seen vectors of ``side`` (FR* substitutes their skyline)."""
        return self._seen_prep[side]

    def _cover_bound(self, unseen_side: int) -> float:
        """``t_i^cover`` where ``unseen_side`` contributes the unseen tuple."""
        self._recomputations += 1
        self._m_recompute.inc()
        if unseen_side == LEFT:
            return self._pair_max(self._cr_prep[LEFT], self._seen_operand(RIGHT))
        return self._pair_max(self._seen_operand(LEFT), self._cr_prep[RIGHT])

    def _both_cover_bound(self) -> float:
        self._recomputations += 1
        self._m_recompute.inc()
        return self._pair_max(self._cr_prep[LEFT], self._cr_prep[RIGHT])

    def _result_bound(self) -> float:
        t0 = min(self._cover_bound(LEFT), self._g[LEFT])
        t1 = min(self._cover_bound(RIGHT), self._g[RIGHT])
        t_both = min(self._both_cover_bound(), min(self._g[LEFT], self._g[RIGHT]))
        self._components = {"t0": t0, "t1": t1, "t_both": t_both}
        return max(t0, t1, t_both)
