"""Grid tree: adaptive, size-bounded covers (Section 5.1.2 of the paper).

The grid tree maintains a cover for the unseen score vectors of one input
while guaranteeing an upper bound on the number of cover points.  It views
the unit hypercube as a uniform grid of ``resolution`` cells per dimension
(``resolution`` is a power of two; the paper's quad-tree level ``L``
corresponds to ``resolution = 2**L``).  A *marked* cell contributes a cover
point at its upper-right corner.  The structure maintains the

    **grid tree invariant**: the set of marked cells is an antichain under
    strict dominance (equivalently, every marked cell has ``covered == 0``
    in the paper's counter formulation),

so the induced cover points always form a skyline — which is what the FR*
cover-bound computation wants.

Implementation notes (see DESIGN.md):

* The structure is stored **sparsely** — marked cells live in an ``(n, e)``
  table; a 64x64x64 grid costs memory proportional to the number of marked
  cells, never the number of grid cells.
* The batch set operations (carve, antichain reduction, bulk quantization)
  are delegated to :mod:`repro.kernels` — :func:`~repro.kernels.grid_carve`,
  :func:`~repro.kernels.antichain` and
  :func:`~repro.kernels.grid_cell_assign` — so the grid tree runs on
  loops for small marked sets and on numpy for bulk, with identical
  marked sets either way.
* ``UpdateGridCR``'s recursive unmark-and-slide (which walks the grid cell
  by cell) is implemented as an equivalent *batch carve*: a marked cell is
  unmarked iff its corner strictly dominates the up-quantized vector, and
  its replacement corners are the single-coordinate projections onto the
  quantized value — exactly where the paper's cascade terminates.  The
  antichain invariant is restored by cross-filtering new points against
  survivors.  Update vectors are quantized **up** to the nearest cell
  corner first, matching the "s is quantized on the grid" premise of the
  paper's Theorem 5.1, which keeps the carved region inside the truly
  infeasible region.
* At the minimum resolution (one cell per dimension — the paper's ``L = 0``)
  updates are no-ops and the single cover point is ``(1, …, 1)``: the grid
  tree degenerates to HRJN*'s corner bound.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.geometry.dominance import Point, as_point
from repro.kernels.types import Cell

#: guard against float fuzz when mapping real coordinates onto grid corners
_EPS = 1e-9


def _partial_deltas(dimension: int) -> list[Cell]:
    """Non-zero 0/1 offsets that are not the all-ones diagonal.

    These define the "adjacent, dominating but not strongly dominating"
    neighbourhood used by the paper's ``covered`` counters.
    """
    deltas = []
    for combo in itertools.product((0, 1), repeat=dimension):
        if any(combo) and not all(combo):
            deltas.append(combo)
    return deltas


def _as_cells(cells) -> list[Cell]:
    """Normalize a kernel result (ndarray or tuple list) to ``list[Cell]``."""
    if hasattr(cells, "tolist"):
        cells = cells.tolist()
    return [tuple(int(v) for v in row) for row in cells]


class GridTree:
    """A size-bounded adaptive cover over ``[0, 1]^dimension``.

    Parameters
    ----------
    dimension:
        Number of score attributes (``e``); must be >= 1.
    resolution:
        Initial cells per dimension; must be a power of two (the paper's
        ``L_0`` expressed in cells, e.g. 64 means quad-tree depth 6).
    """

    def __init__(self, dimension: int, resolution: int) -> None:
        if dimension < 1:
            raise ValueError("grid tree requires dimension >= 1")
        if resolution < 1 or resolution & (resolution - 1):
            raise ValueError("resolution must be a positive power of two")
        self.dimension = dimension
        self.resolution = resolution
        self._deltas = _partial_deltas(dimension)
        # Initially only the cell touching the ideal corner (1, …, 1) is
        # marked, inducing the trivial cover {(1, …, 1)} (Figure 6(a)).
        self._cells: list[Cell] = [(resolution - 1,) * dimension]

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def upper_corner(self, cell: Sequence[int]) -> Point:
        """The cover point induced by ``cell`` — its upper-right corner."""
        return tuple((int(coord) + 1) / self.resolution for coord in cell)

    def cell_containing(self, point: Sequence[float]) -> Cell:
        """The cell whose upper corner weakly dominates ``point``.

        Used when bulk-loading an exact cover into the grid: each exact
        cover point is rounded *up* onto the grid so the grid cover encloses
        the exact one.
        """
        cell = []
        for value in point:
            # Exact ceil: any float fuzz can only push the corner upward,
            # which keeps the corner weakly dominating the point (safe).
            index = math.ceil(value * self.resolution) - 1
            cell.append(min(max(index, 0), self.resolution - 1))
        return tuple(cell)

    def quantize_up(self, point: Sequence[float]) -> Point:
        """Round each coordinate up to the nearest cell-corner multiple."""
        quantized = []
        for value in point:
            # Exact ceil: the quantized point must weakly dominate the raw
            # one or the carve would remove feasible space.
            corner = math.ceil(value * self.resolution) / self.resolution
            quantized.append(min(max(corner, 0.0), 1.0))
        return tuple(quantized)

    # ------------------------------------------------------------------
    # Marked-set queries
    # ------------------------------------------------------------------
    @property
    def marked_cells(self) -> set[Cell]:
        """The currently marked cells as a set of coordinate tuples."""
        return set(self._cells)

    @marked_cells.setter
    def marked_cells(self, cells: Iterable[Sequence[int]]) -> None:
        self._cells = sorted(tuple(int(c) for c in cell) for cell in cells)

    @property
    def num_marked(self) -> int:
        return len(self._cells)

    def cover_points(self) -> list[Point]:
        """Cover points induced by the marked cells, in sorted order."""
        return sorted(self.upper_corner(row) for row in self._cells)

    def cover_array(self):
        """Cover points as an ``(n, e)`` float array."""
        cells = np.asarray(self._cells, dtype=np.int64).reshape(
            -1, self.dimension
        )
        return (cells + 1) / self.resolution

    def covers(self, point: Sequence[float]) -> bool:
        """True if some induced cover point weakly dominates ``point``."""
        if not self._cells:
            return False
        target = tuple(v - _EPS for v in as_point(point))
        corners = [self.upper_corner(cell) for cell in self._cells]
        return kernels.dominates_any(corners, target)

    def _dominated_by_marked(self, cell: Cell) -> bool:
        """True if a marked cell strictly dominates ``cell``."""
        for row in self._cells:
            if row != cell and all(r >= c for r, c in zip(row, cell)):
                return True
        return False

    def covered_count(self, cell: Cell) -> int:
        """The paper's ``covered`` counter, computed from the marked set.

        Counts adjacent cells ``v`` with ``cell ≺ v``, ``cell ⊀⊀ v`` that are
        marked or strictly dominated by a marked cell.
        """
        marked = self.marked_cells
        count = 0
        for delta in self._deltas:
            neighbour = tuple(c + d for c, d in zip(cell, delta))
            if any(coord >= self.resolution for coord in neighbour):
                continue
            if neighbour in marked or self._dominated_by_marked(neighbour):
                count += 1
        return count

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def load_points(self, points: Iterable[Sequence[float]]) -> None:
        """Bulk-replace the marked set with the cells covering ``points``.

        This is the aFR transition step: an exact cover that outgrew its
        budget is transferred onto the grid.  ``initialize`` (the invariant
        enforcement of ``aFR::InitializeGridCR``) is applied automatically.
        """
        batch = [as_point(p) for p in points]
        self._cells = _as_cells(
            kernels.grid_cell_assign(batch, self.resolution)
        )
        self.initialize()

    def initialize(self) -> None:
        """Enforce the grid tree invariant (``aFR::InitializeGridCR``).

        Unmarks every marked cell that is strictly dominated by another
        marked cell, leaving an antichain — equivalent to unmarking cells
        with ``covered > 0`` (see DESIGN.md for the equivalence argument).
        """
        self._cells = _as_cells(kernels.antichain(self._cells))

    def update(self, point: Sequence[float]) -> bool:
        """Carve the region dominating ``point`` (``aFR::UpdateGridCR``).

        ``point`` is an observed score vector certifying that no unseen
        vector weakly dominates it.  Returns True iff the marked set changed.
        At the minimum resolution the call is a no-op (corner-bound regime).
        """
        if self.resolution == 1:
            return False
        new_cells, changed = kernels.grid_carve(
            self._cells, as_point(point), self.resolution
        )
        if changed:
            self._cells = _as_cells(new_cells)
        return changed

    def reduce_resolution(self) -> int:
        """Halve the cells per dimension (paper: ``L ← L - 1``).

        Marked cells are replaced by their parents and the invariant is
        re-enforced.  Returns the new resolution.  Raises ``ValueError`` at
        the minimum resolution (callers should stop reducing at 1).
        """
        if self.resolution == 1:
            raise ValueError("already at minimum resolution")
        self.resolution //= 2
        self._cells = [tuple(c // 2 for c in cell) for cell in self._cells]
        self.initialize()
        return self.resolution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridTree(dim={self.dimension}, resolution={self.resolution}, "
            f"marked={self.num_marked})"
        )
