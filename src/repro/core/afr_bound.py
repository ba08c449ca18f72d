"""The adaptive feasible-region (aFR) bound of a-FRPA (Section 5).

aFR is FR* with each exact cover ``CR_i`` replaced by an
:class:`AdaptiveCover`: the cover is maintained exactly while small; once it
outgrows ``max_cr_size`` it is transferred onto a :class:`GridTree`, whose
resolution is halved as often as needed to keep the point budget.  At the
minimum resolution the cover collapses to ``{(1, …, 1)}`` and the bound
degenerates to HRJN*'s corner bound — the paper's gradual FRPA → HRJN*
morphing.

The two inputs adapt independently: one side can stay exact while the other
is on a coarse grid.

Every cover here is an FR* cover-bound operand: ``points``, plus — given a
row scorer — ``best``, the maximum partial score over them.  An exact cover
carries it across carves (:class:`~repro.geometry.cover.CoverRegion`); a
grid rescans its marked cells after each update.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.bounds import LEFT, RIGHT
from repro.core.frstar_bound import FRStarBound
from repro.core.scoring import NEG_INF
from repro.core.tuples import RankTuple
from repro.geometry.cover import CoverRegion
from repro.geometry.dominance import Point
from repro.geometry.gridtree import GridTree
from repro.obs.metrics import NULL_METRIC, MetricRegistry

DEFAULT_MAX_CR_SIZE = 500
DEFAULT_RESOLUTION = 64


class AdaptiveCover:
    """A cover of bounded size: exact first, grid-quantized when too big.

    Implements ``aFR::UpdateCR`` (Figure 8).  Drop-in replacement for
    :class:`~repro.geometry.cover.CoverRegion` in the FR*/aFR bound code.
    """

    def __init__(
        self,
        dimension: int,
        *,
        max_size: int = DEFAULT_MAX_CR_SIZE,
        resolution: int = DEFAULT_RESOLUTION,
        score=None,
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be positive")
        self.dimension = dimension
        self.max_size = max_size
        self.initial_resolution = resolution
        self._score = score
        self._exact: CoverRegion | None = CoverRegion(
            dimension, skyline_mode=True, score=score
        )
        self._grid: GridTree | None = None
        self.best = self._exact.best

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"exact"`` while precise, ``"grid"`` after the transfer."""
        return "exact" if self._grid is None else "grid"

    @property
    def resolution(self) -> int | None:
        """Current grid resolution (cells per dimension), or None if exact."""
        return None if self._grid is None else self._grid.resolution

    @property
    def points(self) -> list[Point]:
        if self._grid is None:
            assert self._exact is not None
            return self._exact.points
        return self._grid.cover_points()

    def __len__(self) -> int:
        if self._grid is None:
            assert self._exact is not None
            return len(self._exact)
        return self._grid.num_marked

    def __iter__(self):
        return iter(self.points)

    # ------------------------------------------------------------------
    def update(self, observed: Iterable[Sequence[float]]) -> None:
        """Carve the observed vectors, then restore the size budget."""
        batch = list(observed)
        if self._grid is None:
            assert self._exact is not None
            self._exact.update(batch)
            if len(self._exact) > self.max_size and self.dimension >= 1:
                # Transfer the exact cover onto the grid (aFR::UpdateCR 3-7).
                self._grid = GridTree(self.dimension, self.initial_resolution)
                self._grid.load_points(self._exact.points)
                self._exact = None
        else:
            for vector in batch:
                self._grid.update(vector)
        # Reduce resolution until the budget holds (aFR::UpdateCR 11-15).
        while (
            self._grid is not None
            and self._grid.num_marked > self.max_size
            and self._grid.resolution > 1
        ):
            self._grid.reduce_resolution()
        self.best = (
            self._exact.best if self._grid is None
            else _grid_best(self._grid, self._score)
        )

    def covers(self, point: Sequence[float]) -> bool:
        """True if some cover point weakly dominates ``point``."""
        if self._grid is None:
            assert self._exact is not None
            return self._exact.covers(point)
        return self._grid.covers(point)


class FrozenCover:
    """Naive alternative #1 (Section 5.1.1): stop updating once too big.

    Maintains the exact skyline cover while it fits the budget; after the
    budget is exceeded the cover *freezes* and no longer tracks the unseen
    region.  Still a correct (ever looser) cover.  Ablation baseline only.
    """

    def __init__(
        self, dimension: int, *, max_size: int = DEFAULT_MAX_CR_SIZE, score=None
    ) -> None:
        self.dimension = dimension
        self.max_size = max_size
        self._exact = CoverRegion(dimension, skyline_mode=True, score=score)
        self.frozen = False

    @property
    def mode(self) -> str:
        return "frozen" if self.frozen else "exact"

    @property
    def resolution(self) -> int | None:
        return None

    @property
    def points(self) -> list[Point]:
        return self._exact.points

    @property
    def best(self):
        return self._exact.best

    def __len__(self) -> int:
        return len(self._exact)

    def __iter__(self):
        return iter(self._exact)

    def update(self, observed: Iterable[Sequence[float]]) -> None:
        if self.frozen:
            return
        self._exact.update(observed)
        if len(self._exact) > self.max_size:
            self.frozen = True

    def covers(self, point: Sequence[float]) -> bool:
        return self._exact.covers(point)


class FixedGridCover:
    """Naive alternative #2 (Section 5.1.1): a grid of fixed resolution.

    All cover maintenance happens on the grid from the start, at a single
    coarse resolution chosen so the budget can never overflow.  Ablation
    baseline only.
    """

    def __init__(
        self,
        dimension: int,
        *,
        max_size: int = DEFAULT_MAX_CR_SIZE,
        resolution: int | None = None,
        score=None,
    ) -> None:
        self.dimension = dimension
        self.max_size = max_size
        if resolution is None:
            resolution = self._safe_resolution(dimension, max_size)
        self._score = score
        self._grid = GridTree(dimension, resolution)
        self.best = _grid_best(self._grid, score)

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

    @property
    def mode(self) -> str:
        return "fixed-grid"

    @property
    def resolution(self) -> int:
        return self._grid.resolution

    @property
    def points(self) -> list[Point]:
        return self._grid.cover_points()

    def __len__(self) -> int:
        return self._grid.num_marked

    def __iter__(self):
        return iter(self.points)

    def update(self, observed: Iterable[Sequence[float]]) -> None:
        for vector in observed:
            self._grid.update(vector)
        self.best = _grid_best(self._grid, self._score)

    def covers(self, point: Sequence[float]) -> bool:
        return self._grid.covers(point)


def _grid_best(grid: GridTree, score) -> float | None:
    """A grid-mode cover's ``best``: a rescan of its marked cells' corners."""
    if score is None:
        return None
    return max(map(score, grid.cover_points()), default=NEG_INF)


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
        self.max_cr_size = max_cr_size
        self.resolution = resolution
        self.cover_strategy = cover_strategy
        self._m_resolution = (NULL_METRIC, NULL_METRIC)
        self._m_resolution_drops = (NULL_METRIC, NULL_METRIC)
        self._m_grid_transfers = NULL_METRIC
        self._last_resolution: list[int | None] = [None, None]

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        super().observe(metrics, op)
        self._m_resolution = (
            metrics.gauge("gridtree_resolution", op=op, side="left"),
            metrics.gauge("gridtree_resolution", op=op, side="right"),
        )
        self._m_resolution_drops = (
            metrics.counter("gridtree_resolution_drops_total", op=op, side="left"),
            metrics.counter("gridtree_resolution_drops_total", op=op, side="right"),
        )
        self._m_grid_transfers = metrics.counter("cover_grid_transfers_total", op=op)

    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        bound = super().update(side, tup, score_bound)
        resolution = self._cr[side].resolution
        previous = self._last_resolution[side]
        if resolution != previous:
            if previous is None:
                # exact → grid transfer (enters at the initial resolution)
                self._m_grid_transfers.inc()
            if resolution is not None:
                self._m_resolution[side].set(resolution)
                if previous is not None and resolution < previous:
                    self._m_resolution_drops[side].inc()
            self._last_resolution[side] = resolution
        return bound

    def _make_cover(self, dimension: int, score):
        if self.cover_strategy == "frozen":
            return FrozenCover(dimension, max_size=self.max_cr_size, score=score)
        if self.cover_strategy == "fixed-grid":
            return FixedGridCover(dimension, max_size=self.max_cr_size, score=score)
        return AdaptiveCover(
            dimension, max_size=self.max_cr_size, resolution=self.resolution,
            score=score,
        )

    @property
    def cover_modes(self) -> tuple[str, str]:
        """Per-input cover mode: ``exact`` or ``grid``."""
        return (self._cr[LEFT].mode, self._cr[RIGHT].mode)

    @property
    def cover_resolutions(self) -> tuple[int | None, int | None]:
        """Per-input grid resolution (None while exact)."""
        return (self._cr[LEFT].resolution, self._cr[RIGHT].resolution)
