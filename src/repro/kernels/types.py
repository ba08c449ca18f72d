"""The canonical score-vector type.

This is the single home of the ``Point`` alias and the tiny point
constructors that used to be scattered across the ``geometry`` modules.
``repro.geometry.dominance`` re-exports everything here for backward
compatibility.

Score vectors are plain tuples of floats in ``[0, 1]``.  Tuples are used
for the *scalar* (one-point-at-a-time) plane because the vectors are tiny
(``e <= 4`` in the paper's experiments) and hashing/equality on tuples is
what the skyline and cover structures need; the *columnar* plane stores
the same vectors contiguously in a :class:`~repro.kernels.PointSet`.
"""

from __future__ import annotations

from collections.abc import Sequence

Point = tuple[float, ...]


def as_point(values: Sequence[float]) -> Point:
    """Normalize any sequence of floats into the canonical tuple form."""
    return tuple(map(float, values))


def dimension_mismatch(kind: str, expected: int, got: int) -> ValueError:
    """The one wording for a point of the wrong arity reaching a ``kind``
    (cover, skyline, PointSet)."""
    return ValueError(
        f"dimension mismatch: {kind} is {expected}-d, point is {got}-d"
    )


def ones(dimension: int) -> Point:
    """The ideal point ``(1, …, 1)`` of the given dimension."""
    return (1.0,) * dimension


def substitute(point: Sequence[float], index: int, value: float) -> Point:
    """Return ``point[index ↦ value]`` — the paper's coordinate substitution."""
    if not 0 <= index < len(point):
        raise IndexError(f"coordinate {index} out of range for {len(point)}-d point")
    replaced = list(point)
    replaced[index] = value
    return tuple(replaced)
