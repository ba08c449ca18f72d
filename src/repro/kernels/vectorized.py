"""The numpy forms of the four bulk ops: one broadcast per batch.

``cover_corner_scores``, ``cross_product_max``, ``grid_cell_assign`` and
``grid_carve`` win on bulk by 57–89× (PBRJ_FR^RR's seen columns, aFR's grid
mode); the other four ops have no numpy form.  Bit-identical to the loops in
:mod:`repro.kernels.reference` by construction:

* dominance tests and grid arithmetic are exact comparisons/integers;
* partial scores accumulate column-by-column (``out += arr[:, j]``),
  which is the same left-to-right float addition order as the reference
  loops — never a pairwise/blocked reduction that could round differently;
* set-producing kernels (grid carves) emit the same sets (order may differ
  only where the consumer is order-insensitive).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.pointset import PointSet
from repro.kernels.reference import antichain

NEG_INF = float("-inf")


def _arr(points) -> np.ndarray:
    """Any supported operand as an ``(n, e)`` float64 array."""
    if isinstance(points, PointSet):
        return points.array
    array = np.asarray(points, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(0, 0) if array.size == 0 else array.reshape(1, -1)
    return array


def _cells_arr(cells) -> np.ndarray:
    """Any supported cell operand as an ``(n, e)`` int64 array."""
    array = np.asarray(cells, dtype=np.int64)
    if array.ndim == 1:
        array = array.reshape(0, 0) if array.size == 0 else array.reshape(1, -1)
    return array


def column_sum(array: np.ndarray, weights: Sequence[float] | None) -> np.ndarray:
    """Left-to-right per-row sum (optionally weighted), column at a time.

    Matches the loops' ``s = 0.0; s += w*x`` accumulation
    bit-for-bit for any row width.
    """
    n, e = array.shape
    out = np.zeros(n, dtype=np.float64)
    if weights is None:
        for j in range(e):
            out += array[:, j]
    else:
        for j in range(min(e, len(weights))):
            out += float(weights[j]) * array[:, j]
    return out


def cover_corner_scores(
    points, weights: Sequence[float] | None = None
) -> np.ndarray:
    return column_sum(_arr(points), weights)


def cross_product_max(left, right) -> float:
    left_vals = np.asarray(left, dtype=np.float64)
    right_vals = np.asarray(right, dtype=np.float64)
    if not left_vals.size or not right_vals.size:
        return NEG_INF
    # Full cross product, one broadcast — FR's combinatorial
    # cover-bound cost with compiled constants.
    return float((left_vals[:, None] + right_vals[None, :]).max())


def grid_cell_assign(points, resolution: int) -> np.ndarray:
    array = _arr(points)
    if not array.shape[0]:
        return np.zeros((0, array.shape[1]), dtype=np.int64)
    cells = np.ceil(array * resolution).astype(np.int64) - 1
    return np.clip(cells, 0, resolution - 1)


def grid_carve(
    cells, point: Sequence[float], resolution: int
) -> tuple[np.ndarray, bool]:
    array = _cells_arr(cells)
    m = np.ceil(np.asarray(tuple(point), dtype=np.float64) * resolution)
    m = np.clip(m, 0, resolution).astype(np.int64)
    removed_mask = (array >= m).all(axis=1) if array.shape[0] else None
    if removed_mask is None or not removed_mask.any():
        return array, False
    dimension = array.shape[1]
    removed = array[removed_mask]
    survivors = array[~removed_mask]
    projected = np.repeat(removed, dimension, axis=0)
    cols = np.tile(np.arange(dimension), removed.shape[0])
    projected[np.arange(projected.shape[0]), cols] = m[cols] - 1
    projected = projected[(projected >= 0).all(axis=1)]
    fresh = _cells_arr(antichain(projected)).reshape(-1, dimension)
    if survivors.shape[0] and fresh.shape[0]:
        # Live on the grid (see the loop's counterexample).
        dominated_new = (
            (survivors[:, None, :] >= fresh[None, :, :]).all(axis=2).any(axis=0)
        )
        fresh = fresh[~dominated_new]
    return np.concatenate([survivors, fresh], axis=0), True
