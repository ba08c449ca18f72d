"""Columnar point sets: the storage half of the kernel data plane.

A :class:`PointSet` holds ``n`` e-dimensional score vectors contiguously —
a capacity-doubling ``(capacity, e)`` float64 array — so the batch kernels in
:mod:`repro.kernels` can scan whole sets without materializing one tuple
per row.  The set is **append-only**: a row id is the row index at
insertion time and never changes, so a cached view (e.g. the prepared
partial-score operands in :mod:`repro.core.scoring`) that remembers the
size it last saw (:attr:`stamp`) only ever has to extend.  This is the
*bulk* representation — seen score columns, kernel probes; the small,
constantly carved sets of the FR* pull path live in
:class:`repro.geometry.antichain.ScoredAntichain`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.kernels.types import Point, as_point, dimension_mismatch

_INITIAL_CAPACITY = 16


class PointSet:
    """A growable columnar set of fixed-dimension score vectors.

    Parameters
    ----------
    dimension:
        Number of coordinates per point, or ``None`` to infer it from the
        first point added (a dimensionless empty set).
    points:
        Optional initial contents.
    """

    __slots__ = ("_dimension", "_buf", "_size", "_tuple_cache")

    def __init__(
        self,
        dimension: int | None = None,
        points: Iterable[Sequence[float]] = (),
    ) -> None:
        if dimension is not None and dimension < 0:
            raise ValueError("dimension must be non-negative")
        self._dimension = dimension
        self._size = 0
        self._tuple_cache: list[Point] | None = None
        self._buf = self._new_buffer(_INITIAL_CAPACITY)
        self.extend(points)

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------
    def _new_buffer(self, capacity: int):
        if self._dimension is not None:
            return np.empty((capacity, self._dimension), dtype=np.float64)
        return []  # dimension still unknown: nothing to allocate yet

    def _settle_dimension(self, dimension: int) -> None:
        """Fix a lazily-inferred dimension on first data."""
        if self._dimension is None:
            self._dimension = dimension
            self._buf = self._new_buffer(_INITIAL_CAPACITY)
        elif dimension != self._dimension:
            raise dimension_mismatch("PointSet", self._dimension, dimension)

    @property
    def dimension(self) -> int | None:
        """Coordinates per point (``None`` until the first point arrives)."""
        return self._dimension

    @property
    def stamp(self) -> int:
        """The row count — the cache-validity token for views: a larger
        stamp means "rows were appended, the prefix stands"."""
        return self._size

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, point: Sequence[float]) -> int:
        """Add one point; return its (stable) row id."""
        values = as_point(point)
        self._settle_dimension(len(values))
        self._tuple_cache = None
        if self._size == self._buf.shape[0]:
            grown = self._new_buffer(max(2 * self._size, _INITIAL_CAPACITY))
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        self._buf[self._size] = values
        self._size += 1
        return self._size - 1

    def extend(self, points: Iterable[Sequence[float]]) -> None:
        for point in points:
            self.append(point)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def array(self):
        """The points as an ``(n, e)`` float64 view (do not mutate).

        The view aliases internal storage and is invalidated by the next
        mutation.
        """
        if self._dimension is None:
            return np.empty((0, 0), dtype=np.float64)
        return self._buf[: self._size]

    def tuples(self) -> list[Point]:
        """The points as canonical tuples (cached until the next append)."""
        if self._tuple_cache is None:
            self._tuple_cache = [tuple(row) for row in self.array.tolist()]
        return self._tuple_cache

    def __iter__(self) -> Iterator[Point]:
        return iter(self.tuples())

    def __contains__(self, point: Sequence[float]) -> bool:
        return as_point(point) in self.tuples()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointSet(dim={self._dimension}, n={self._size})"
