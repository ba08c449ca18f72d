"""The original feasible-region (FR) bound of PBRJ_FR^RR (Section 4.1).

The FR bound maintains, per input ``R_i``:

* ``CR_i`` — an exact cover of the score vectors of the unseen tuples,
* ``G_i`` — the current *group* of seen tuples sharing score bound ``g_i``,
* ``g_i`` — the score bound of the last accessed tuple.

When a tuple with a strictly smaller score bound arrives, the finished
group's vectors certify carved regions and ``CR_i`` is updated.  The bound
is the maximum over the *cases* of an undiscovered result: a case is the
non-empty set ``U`` of inputs whose tuple is unseen (Figure 3's three for
``τ1 ⋈ τ2``: unseen-left ``t_1``, unseen-right ``t_2``, both ``t_both``).
A case is the minimum of a *cover bound* — the maximum of ``S`` over the
cross product of ``CR_i`` for ``i ∈ U`` and the seen vectors of every other
input — and an *order bound* ``min_{i∈U} g_i``.  The bookkeeping here is
written once over ``len(context.dims)`` inputs (Section 2.1's n-ary rank
join), cases in bit-mask order: ``(t_1, t_2, t_both)`` for two.  This
literal bound takes two; FR* and aFR take any number under an additive
``S``.

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
* Under a weighted-sum ``S`` — one whose
  :meth:`~repro.core.scoring.ScoringFunction.row_weights` are not ``None``,
  which hand each operand its coordinates' weights — cross-product operands
  carry their partial scores, so each recomputation is one O(n·m) batch
  kernel call (:func:`repro.kernels.cross_product_max`) instead of a Python
  loop, mirroring the paper's compiled C++ constants.  The "seen" operands
  are *prepared* operands over columnar :class:`~repro.kernels.PointSet`
  columns — the bound's own, or caller-maintained ones handed in as
  :attr:`~repro.core.bounds.BoundContext.columns` — synced incrementally via
  the column's mutation stamp; the cover operands are the covers themselves
  (:class:`~repro.geometry.cover.CoverRegion`, a list-native scored
  antichain that carries its partials across carves).
"""

from __future__ import annotations

from repro.core.bounds import POS_INF, BoundContext, BoundingScheme
from repro.core.scoring import NEG_INF
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
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
        self._bound = POS_INF
        self._recomputations = 0
        self._booked = 0  # recomputations published
        self._m_recompute = NULL_METRIC

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        self._m_recompute = metrics.counter(
            "bound_recompute_total", op=op, scheme=self.scheme_name
        )

    def flush(self) -> None:
        self._m_recompute.inc(self._recomputations - self._booked)
        self._booked = self._recomputations
        book_carves(self._cr)

    def bind(self, context: BoundContext) -> None:
        self._check_arity(context)
        super().bind(context)
        dims, scoring = context.dims, context.scoring
        n = len(dims)
        offsets = [sum(dims[:i]) for i in range(n)]
        self._cr = [
            self._make_cover(e, scoring.row_weights(offset, e))
            for e, offset in zip(dims, offsets)
        ]
        #: Seen score columns this bound appends to itself (``None`` for an
        #: input whose column the caller maintains; FR* keeps none).
        self._own_columns: list[PointSet | None] = [None] * n
        self._seen = [self._make_seen(i, offset) for i, offset in enumerate(offsets)]
        self._group: list[list] = [[] for _ in dims]
        self._g = [POS_INF] * n
        # Case ``mask - 1`` has input i unseen iff bit i of ``mask`` is set.
        # Per case: its cover-bound operands, cover bound, order bound and
        # value (their minimum); per input i: the cases that read ``CR_i``
        # (i unseen) and those that read its seen set.
        masks = range(1, 1 << n)
        self._operands = [
            tuple(self._cr[i] if mask >> i & 1 else self._seen[i] for i in range(n))
            for mask in masks
        ]
        self._by_cover = [[m - 1 for m in masks if m >> i & 1] for i in range(n)]
        self._by_seen = [[m - 1 for m in masks if not m >> i & 1] for i in range(n)]
        self._t_cover = [NEG_INF] * len(masks)
        self._order = [POS_INF] * len(masks)
        self._components: tuple[float, ...] = (POS_INF,) * len(masks)
        self._cover_max = scoring.max_prepared

    def _check_arity(self, context: BoundContext) -> None:
        """The literal cross product is FR's over two inputs."""
        if len(context.dims) != 2:
            raise InstanceError(
                f"the {self.scheme_name} bound joins two inputs, "
                f"got {len(context.dims)}"
            )

    def _make_cover(self, dimension: int, weights):
        """The cover ``CR_i`` of one input (aFR substitutes a bounded one)."""
        return CoverRegion(dimension, skyline_mode=self.prune_covers, weights=weights)

    def _make_seen(self, side: int, offset: int):
        """The seen operand of one input: every seen vector, as a prepared
        operand over a score column only this bound reads — its own unless
        the caller maintains one (FR* substitutes the seen skyline)."""
        assert self.context is not None
        if self.context.columns is None:
            column = self._own_columns[side] = PointSet(self.context.dims[side])
        else:
            column = self.context.columns[side]
        return self.context.scoring.prepare(column, offset)

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
            closed, self._group[side] = self._group[side], [point]
            self._lower(side, sbar)
            return closed
        self._group[side].append(point)
        return None

    def _lower(self, side: int, g: float) -> None:
        """``g_side`` drops to ``g``, and with it the order bound of every
        case ``side`` is unseen in (``g_i`` never rises, so a min suffices)."""
        self._g[side] = g
        order = self._order
        for case in self._by_cover[side]:
            if g < order[case]:
                order[case] = g

    def _refresh(self, cases) -> None:
        """Recompute the cover bounds of ``cases``: ``max S`` over the cross
        product of each one's operands (the literal one here, the cheapest
        exact route in FR*)."""
        cover_max, operands, t_cover = self._cover_max, self._operands, self._t_cover
        for case in cases:
            t_cover[case] = cover_max(*operands[case])
        self._recomputations += len(cases)

    def _recombine(self) -> float:
        """Each case is the lesser of its cover and order bounds; ``t`` is
        the greatest case."""
        self._components = components = tuple(map(min, self._t_cover, self._order))
        self._bound = max(components)
        return self._bound

    def _result_bound(self) -> float:
        """Figure 3's ``FR::ResultBound``: every cover bound afresh."""
        self._refresh(range(len(self._operands)))
        return self._recombine()

    # ------------------------------------------------------------------
    # BoundingScheme API
    # ------------------------------------------------------------------
    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        assert self.context is not None, "bind() must be called first"
        group = self._absorb(side, tup.scores, score_bound)
        if group is not None:
            self._cr[side].update(group)
        column = self._own_columns[side]
        if column is not None:
            column.append(tup.scores)
        return self._result_bound()

    def current(self) -> float:
        return self._bound

    def potential(self, side: int) -> float:
        """``pot_i``: the greatest case with input ``side`` unseen —
        ``max(t_i, t_both)`` for two inputs."""
        components = self._components
        return max([components[case] for case in self._by_cover[side]])

    def notify_exhausted(self, side: int) -> float:
        self._lower(side, NEG_INF)
        return self._result_bound()

    @property
    def cover_recomputations(self) -> int:
        return self._recomputations

    @property
    def cover_sizes(self) -> tuple[int, ...]:
        """Current ``(|CR_1|, …, |CR_n|)`` — the paper's complexity driver."""
        return tuple(len(cover) for cover in self._cr)

    @property
    def components(self) -> dict:
        """Last computed cases: ``t0``, ``t1``, ``t_both`` for two inputs,
        else keyed by bit mask (bit ``i`` set: input ``i`` unseen)."""
        n = len(self._components)
        names = ("t0", "t1", "t_both") if n == 3 else range(1, n + 1)
        return dict(zip(names, self._components))
