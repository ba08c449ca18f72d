"""The paper's cell formulation of the grid tree — the test oracle.

Section 5.1.2 states aFR's bounded cover on *cells*: the unit hypercube is an
``r × … × r`` grid, a marked cell contributes its upper-right corner as a
cover point, and the marked set is kept an antichain.  Production keeps no
cells: it carves a :class:`~repro.geometry.cover.CoverRegion` with the
observation rounded up onto the grid.  These are the loops the cell plane
ran on until it was deleted (``kernels.grid_cell_assign`` / ``antichain`` /
``grid_carve`` and the ``GridTree`` that drove them), kept verbatim in
behaviour so ``test_gridtree.py`` can hold the rounding cover to them state
by state.
"""

from math import ceil
from operator import ge

NEG_INF = float("-inf")


def cell_assign(points, resolution):
    """Cell containing each point: coordinates rounded *up* onto the grid."""
    return [
        tuple(
            min(max(ceil(value * resolution) - 1, 0), resolution - 1)
            for value in row
        )
        for row in points
    ]


def antichain(cells):
    """Integer cells reduced to their dominance antichain (dedup'd, sorted)."""
    unique = sorted(set(cells))
    return [
        cell for cell in unique
        if not any(o != cell and all(map(ge, o, cell)) for o in unique)
    ]


def grid_carve(cells, point, resolution):
    """``aFR::UpdateGridCR`` for one observed vector.

    The vector is up-quantized to integer grid coordinates ``m``; a marked
    cell is unmarked iff its corner strictly dominates the quantized point
    (``cell >= m`` componentwise), and its replacements are the
    single-coordinate projections onto ``m - 1``.
    """
    m = tuple(min(max(ceil(v * resolution), 0), resolution) for v in point)
    removed = [c for c in cells if all(map(ge, c, m))]
    if not removed:
        return cells
    survivors = [c for c in cells if not all(map(ge, c, m))]
    projected = set()
    for cell in removed:
        for axis in range(len(m)):
            slid = cell[:axis] + (m[axis] - 1,) + cell[axis + 1:]
            if min(slid) >= 0:
                projected.add(slid)
    # On cells a survivor can dominate a projection (cells=[(7,4),(5,7)],
    # m=(2,5): fresh (5,4) sits under survivor (7,4)); on corners that
    # survivor is removed by the weak carve and comes straight back.
    return survivors + [
        c for c in antichain(projected)
        if not any(all(map(ge, s, c)) for s in survivors)
    ]


class CellGrid:
    """The marked cells of one grid tree and the cover they induce."""

    def __init__(self, dimension, resolution):
        self.resolution = resolution
        # Only the cell touching (1, …, 1) is marked (Figure 6(a)).
        self.cells = [(resolution - 1,) * dimension]

    def points(self):
        """The induced cover: every marked cell's upper corner, sorted."""
        return sorted(
            tuple((c + 1) / self.resolution for c in cell) for cell in self.cells
        )

    def best(self, score):
        return max(map(score, self.points()), default=NEG_INF)

    def load(self, points):
        """``aFR::InitializeGridCR`` over an exact cover's points."""
        self.cells = antichain(cell_assign(points, self.resolution))

    def update(self, point):
        """Carve one vector; a no-op at one cell per axis (corner bound)."""
        if self.resolution > 1:
            self.cells = grid_carve(self.cells, point, self.resolution)

    def halve(self):
        """The paper's ``L ← L − 1``: every marked cell becomes its parent."""
        self.resolution //= 2
        self.cells = antichain(tuple(c // 2 for c in cell) for cell in self.cells)
