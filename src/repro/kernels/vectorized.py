"""The numpy forms of the two bulk ops: one broadcast per batch.

``cover_corner_scores`` and ``cross_product_max`` win on bulk by 57–89×
(PBRJ_FR^RR's seen columns); the other three ops have no numpy form.
Bit-identical to the loops in :mod:`repro.kernels.reference` by
construction: partial scores accumulate column-by-column
(``out += arr[:, j]``), which is the same left-to-right float addition
order as the reference loops — never a pairwise/blocked reduction that
could round differently — and a maximum is order-free.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.pointset import PointSet

NEG_INF = float("-inf")


def _arr(points) -> np.ndarray:
    """Any supported operand as an ``(n, e)`` float64 array."""
    if isinstance(points, PointSet):
        return points.array
    array = np.asarray(points, dtype=np.float64)
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
