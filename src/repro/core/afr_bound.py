"""The adaptive feasible-region (aFR) bound of a-FRPA (Section 5).

aFR is FR* with each exact cover ``CR_i`` replaced by an
:class:`AdaptiveCover`: the cover is maintained exactly while small; once it
outgrows ``max_cr_size`` it moves onto a grid (the paper's grid tree — here
the same :class:`~repro.geometry.cover.CoverRegion`, carving observations
rounded up onto the grid), whose resolution is halved as often as needed to
keep the point budget.  At the minimum resolution the cover collapses to
``{(1, …, 1)}`` and the bound degenerates to HRJN*'s corner bound — the
paper's gradual FRPA → HRJN* morphing.

The inputs adapt independently: one can stay exact while another is on a
coarse grid.  Like FR*, aFR takes any number of inputs under an additive
``S`` — it is the n-ary feasible bound of
:class:`~repro.core.pbrj.PBRJ` over a chain too.

Every cover here is an FR* cover-bound operand: ``points``, plus — given
its coordinates' weights — ``best``, the maximum partial score over them,
carried across carves and rescored once per move onto a coarser grid.
"""

from __future__ import annotations

from repro.core.bounds import BoundContext
from repro.core.frstar_bound import FRStarBound
from repro.core.pulling import side_labels
from repro.geometry.cover import CoverRegion
from repro.obs.metrics import NULL_METRIC, MetricRegistry

DEFAULT_MAX_CR_SIZE = 500
DEFAULT_RESOLUTION = 64


def check_cover_budget(max_cr_size: int, resolution: int) -> None:
    """Refuse a cover budget or an initial grid resolution that could only
    fail later, at the hand-over in the middle of a query."""
    def positive_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 1

    if not positive_int(max_cr_size):
        raise ValueError(
            f"max_cr_size must be a positive integer, got {max_cr_size!r}"
        )
    if not positive_int(resolution) or resolution & (resolution - 1):
        raise ValueError(
            f"resolution must be a positive power of two, got {resolution!r}"
        )


class AdaptiveCover(CoverRegion):
    """A cover of bounded size: exact first, grid-quantized when too big.

    Implements ``aFR::UpdateCR`` (Figure 8): a
    :class:`~repro.geometry.cover.CoverRegion` plus the budget loop.
    """

    __slots__ = ("max_size", "initial_resolution")

    def __init__(
        self,
        dimension: int,
        *,
        max_size: int = DEFAULT_MAX_CR_SIZE,
        resolution: int = DEFAULT_RESOLUTION,
        weights=None,
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be positive")
        super().__init__(dimension, skyline_mode=True, weights=weights)
        self.max_size = max_size
        self.initial_resolution = resolution

    @property
    def mode(self) -> str:
        """``"exact"`` while precise, ``"grid"`` after the transfer."""
        return "exact" if self.resolution is None else "grid"

    def _fit(self) -> None:
        """Restore the size budget after a carve: onto the initial grid
        (aFR::UpdateCR 3-7), then one halving at a time (11-15)."""
        while len(self._points) > self.max_size and self.resolution != 1:
            self.coarsen(
                self.initial_resolution if self.resolution is None
                else self.resolution // 2
            )


class FrozenCover(AdaptiveCover):
    """Naive alternative #1 (Section 5.1.1): stop updating once too big.

    Maintains the exact skyline cover while it fits the budget; after the
    budget is exceeded the cover *freezes* and no longer tracks the unseen
    region.  Still a correct (ever looser) cover.  Ablation baseline only.
    """

    __slots__ = ()

    @property
    def frozen(self) -> bool:
        return len(self._points) > self.max_size

    @property
    def mode(self) -> str:
        return "frozen" if self.frozen else "exact"

    _fit = CoverRegion._fit  # over budget: freeze where it stands

    def cut(self, batch) -> None:
        if not self.frozen:
            CoverRegion.cut(self, batch)


class FixedGridCover(AdaptiveCover):
    """Naive alternative #2 (Section 5.1.1): a grid of fixed resolution.

    All cover maintenance happens on the grid from the start, at a single
    coarse resolution chosen so the budget can never overflow.  Ablation
    baseline only.
    """

    __slots__ = ()
    mode = "fixed-grid"
    _fit = CoverRegion._fit  # the grid never moves

    def __init__(
        self,
        dimension: int,
        *,
        max_size: int = DEFAULT_MAX_CR_SIZE,
        resolution: int | None = None,
        weights=None,
    ) -> None:
        if resolution is None:
            resolution = self._safe_resolution(dimension, max_size)
        super().__init__(
            dimension, max_size=max_size, resolution=resolution, weights=weights
        )
        self.resolution = resolution

    @staticmethod
    def _safe_resolution(dimension: int, max_size: int) -> int:
        """Largest power-of-two resolution whose worst-case skyline fits.

        A skyline on an ``r^e`` grid has at most ``r^(e-1)`` cells, so we
        pick the largest ``r`` with ``r^(e-1) <= max_size`` (the paper's
        example: budget 500 at e=3 forces an 8-interval grid... we solve it
        exactly rather than hard-coding).
        """
        if dimension <= 1:
            return 1
        resolution = 1
        while (resolution * 2) ** (dimension - 1) <= max_size:
            resolution *= 2
        return resolution


#: Cover strategies selectable on :class:`AFRBound` (ablation study).
COVER_STRATEGIES = ("adaptive", "frozen", "fixed-grid")


class AFRBound(FRStarBound):
    """FR* with size-bounded adaptive covers (the a-FRPA bound)."""

    scheme_name = "aFR"

    def __init__(
        self,
        *,
        max_cr_size: int = DEFAULT_MAX_CR_SIZE,
        resolution: int = DEFAULT_RESOLUTION,
        cover_strategy: str = "adaptive",
    ) -> None:
        super().__init__()
        if cover_strategy not in COVER_STRATEGIES:
            raise ValueError(
                f"cover_strategy must be one of {COVER_STRATEGIES}, "
                f"got {cover_strategy!r}"
            )
        check_cover_budget(max_cr_size, resolution)
        self.max_cr_size = max_cr_size
        self.resolution = resolution
        self.cover_strategy = cover_strategy
        self._m_grid_transfers = NULL_METRIC

    def bind(self, context: BoundContext) -> None:
        super().bind(context)
        n = len(context.dims)
        self._m_resolution = self._m_resolution_drops = (NULL_METRIC,) * n
        #: The grid each cover was on at the last :meth:`flush`.
        self._grids: list[int | None] = [None] * n

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        super().observe(metrics, op)
        labels = side_labels(len(self._cr))
        self._m_resolution = tuple(
            metrics.gauge("gridtree_resolution", op=op, side=label)
            for label in labels
        )
        self._m_resolution_drops = tuple(
            metrics.counter("gridtree_resolution_drops_total", op=op, side=label)
            for label in labels
        )
        self._m_grid_transfers = metrics.counter("cover_grid_transfers_total", op=op)

    def flush(self) -> None:
        """Book the step's tallies and each cover's moves onto coarser grids."""
        super().flush()
        for side, cover in enumerate(self._cr):
            resolution, previous = cover.resolution, self._grids[side]
            if resolution == previous:
                continue
            if previous is None:
                # exact → grid transfer (enters at the initial resolution)
                self._m_grid_transfers.inc()
                previous = cover.initial_resolution
            self._m_resolution[side].set(resolution)
            # Halvings, however many carves took them: log2 of the ratio.
            self._m_resolution_drops[side].inc((previous // resolution).bit_length() - 1)
            self._grids[side] = resolution

    def _make_cover(self, dimension: int, weights):
        if self.cover_strategy == "frozen":
            return FrozenCover(dimension, max_size=self.max_cr_size, weights=weights)
        if self.cover_strategy == "fixed-grid":
            return FixedGridCover(
                dimension, max_size=self.max_cr_size, weights=weights
            )
        return AdaptiveCover(
            dimension, max_size=self.max_cr_size, resolution=self.resolution,
            weights=weights,
        )

    @property
    def cover_modes(self) -> tuple[str, ...]:
        """Per-input cover mode: ``exact`` or ``grid``."""
        return tuple(cover.mode for cover in self._cr)

    @property
    def cover_resolutions(self) -> tuple[int | None, ...]:
        """Per-input grid resolution (None while exact)."""
        return tuple(cover.resolution for cover in self._cr)
