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
* Cross-product operands carry their partial scores, so each recomputation
  is one O(n·m) batch kernel call (:func:`repro.kernels.cross_product_max`)
  instead of a Python loop, mirroring the paper's compiled C++ constants.
  The "seen" operands are *prepared* operands over columnar
  :class:`~repro.kernels.PointSet` columns — the bound's own, or
  caller-maintained ones handed in as
  :attr:`~repro.core.bounds.BoundContext.columns` — synced incrementally via
  the column's mutation stamp; the cover operands are the covers themselves
  (:class:`~repro.geometry.cover.CoverRegion`, a list-native scored
  antichain that carries its partials across carves).
"""

from __future__ import annotations

from repro.core.bounds import LEFT, RIGHT, POS_INF, BoundContext, BoundingScheme
from repro.core.scoring import NEG_INF
from repro.core.tuples import RankTuple
from repro.geometry.antichain import book_carves
from repro.geometry.cover import CoverRegion
from repro.kernels import PointSet
from repro.obs.metrics import NULL_METRIC, MetricRegistry


class FRBound(BoundingScheme):
    """The tight (and deliberately slow) feasible-region bound."""

    scheme_name = "FR"

    def __init__(self, *, prune_covers: bool = True) -> None:
        super().__init__()
        self.prune_covers = prune_covers
        self._cr: list = []
        self._seen: list = []
        self._group: list[list[tuple[float, ...]]] = [[], []]
        self._g: list[float] = [POS_INF, POS_INF]
        #: Seen score columns this bound appends to itself (``None`` for a
        #: side whose column the caller maintains; FR* keeps none).
        self._own_columns: list[PointSet | None] = [None, None]
        #: Last computed ``(t0, t1, t_both)``.
        self._components = (POS_INF, POS_INF, POS_INF)
        self._bound = POS_INF
        self._recomputations = 0
        # Recomputations published, and cover sizes since (None: unobserved).
        self._booked, self._sizes = 0, None
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
        self._sizes = ([], [])

    def flush(self) -> None:
        self._m_recompute.inc(self._recomputations - self._booked)
        self._booked = self._recomputations
        if self._sizes is not None:
            sizes, self._sizes = self._sizes, ([], [])
            for histogram, observed in zip(self._m_cover_size, sizes):
                histogram.observe_many(observed)
        book_carves(self._cr)

    def bind(self, context: BoundContext) -> None:
        super().bind(context)
        sides = ((LEFT, 0), (RIGHT, context.dims[LEFT]))
        self._cr = [
            self._make_cover(context.dims[side], context.scoring.row_scorer(offset))
            for side, offset in sides
        ]
        self._seen = [self._make_seen(side, offset) for side, offset in sides]

    def _make_cover(self, dimension: int, score):
        """The cover ``CR_i`` of one input (aFR substitutes a bounded one)."""
        return CoverRegion(dimension, skyline_mode=self.prune_covers, score=score)

    def _make_seen(self, side: int, offset: int):
        """The seen operand of one input: every seen vector, as a prepared
        operand over a score column only this bound reads — its own unless
        the caller maintains one (FR* substitutes the seen skyline)."""
        assert self.context is not None
        if self.context.columns is None:
            column = self._own_columns[side] = PointSet()
        else:
            column = self.context.columns[side]
        return self.context.scoring.prepare(offset=offset, source=column)

    # ------------------------------------------------------------------
    # Bookkeeping shared with subclasses
    # ------------------------------------------------------------------
    def _absorb(self, side: int, point, sbar: float | None) -> list | None:
        """Fold a pulled score vector into its side's group; returns the
        group its pull closed (``[]`` on a side's first pull), else None."""
        assert self.context is not None
        if sbar is None:
            sbar = self.context.score_bound(side, point)
        if sbar < self._g[side]:
            closed, self._group[side], self._g[side] = self._group[side], [point], sbar
            return closed
        self._group[side].append(point)
        return None

    def _close(self, side: int, group: list) -> None:
        """A group of ``side`` finished: carve its vectors out of ``CR_side``."""
        self._cr[side].update(group)
        if self._sizes is not None:
            self._sizes[side].append(len(self._cr[side]))

    # ------------------------------------------------------------------
    # BoundingScheme API
    # ------------------------------------------------------------------
    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        assert self.context is not None, "bind() must be called first"
        group = self._absorb(side, tup.scores, score_bound)
        if group is not None:
            self._close(side, group)
        column = self._own_columns[side]
        if column is not None:
            column.append(tup.scores)
        self._bound = self._result_bound()
        return self._bound

    def current(self) -> float:
        return self._bound

    def potential(self, side: int) -> float:
        """``pot_i = max(t_i, t_both)`` — score potential of input ``side``."""
        return max(self._components[side], self._components[2])

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
        return dict(zip(("t0", "t1", "t_both"), self._components))

    # ------------------------------------------------------------------
    # Bound computation (Figure 3, Function FR::ResultBound)
    # ------------------------------------------------------------------
    def _pair_max(self, left, right) -> float:
        """``max S(c1 ⊕ c2)`` as the literal cross product — the cost the
        paper's Figure 2 measures on PBRJ_FR^RR; FR* overrides this."""
        assert self.context is not None
        return self.context.scoring.max_prepared(left, right)

    def _cover_bound(self, unseen_side: int) -> float:
        """``t_i^cover`` where ``unseen_side`` contributes the unseen tuple."""
        self._recomputations += 1
        if unseen_side == LEFT:
            return self._pair_max(self._cr[LEFT], self._seen[RIGHT])
        return self._pair_max(self._seen[LEFT], self._cr[RIGHT])

    def _both_cover_bound(self) -> float:
        self._recomputations += 1
        return self._pair_max(self._cr[LEFT], self._cr[RIGHT])

    def _result_bound(self) -> float:
        t0 = min(self._cover_bound(LEFT), self._g[LEFT])
        t1 = min(self._cover_bound(RIGHT), self._g[RIGHT])
        t_both = min(self._both_cover_bound(), min(self._g[LEFT], self._g[RIGHT]))
        self._components = (t0, t1, t_both)
        return max(t0, t1, t_both)
