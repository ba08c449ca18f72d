"""Columnar point sets: the storage half of the kernel data plane.

A :class:`PointSet` holds ``n`` e-dimensional score vectors contiguously —
a capacity-doubling ``(capacity, e)`` float64 array — so the batch kernels in
:mod:`repro.kernels` can scan whole sets without materializing one tuple
per row.  Row ids are stable under :meth:`append`/:meth:`extend` (the row
id is the row index at insertion time); :meth:`replace`, :meth:`compress`
and :meth:`clear` renumber and bump :attr:`version` so cached views (e.g.
the prepared partial-score operands in :mod:`repro.core.scoring`) know to
rebuild instead of extending.  This is the *bulk* representation — seen
score columns, kernel probes; the small, constantly carved sets of the FR*
pull path live in :class:`repro.geometry.antichain.ScoredAntichain`.
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

    __slots__ = ("_dimension", "_buf", "_size", "_version", "_tuple_cache")

    def __init__(
        self,
        dimension: int | None = None,
        points: Iterable[Sequence[float]] = (),
    ) -> None:
        if dimension is not None and dimension < 0:
            raise ValueError("dimension must be non-negative")
        self._dimension = dimension
        self._size = 0
        self._version = 0
        self._tuple_cache: tuple[tuple[int, int], list[Point]] | None = None
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
    def version(self) -> int:
        """Bumped by every non-append mutation (replace/compress/clear)."""
        return self._version

    @property
    def stamp(self) -> tuple[int, int]:
        """``(version, size)`` — cheap cache-validity token for views.

        Same version, larger size means "rows were appended, prefix
        unchanged"; a version change means "start over".
        """
        return (self._version, self._size)

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

    def replace(self, points) -> None:
        """Swap in a new point set wholesale (bumps :attr:`version`).

        Accepts another :class:`PointSet`, an ``(n, e)`` numpy array, or
        any iterable of coordinate sequences.
        """
        self._version += 1
        self._tuple_cache = None
        if isinstance(points, PointSet):
            points = points.array
        if isinstance(points, np.ndarray):
            array = np.ascontiguousarray(points, dtype=np.float64)
            if array.ndim != 2:
                raise ValueError("replace expects an (n, e) array")
            self._settle_dimension(array.shape[1])
            self._buf = array.copy()
            self._size = array.shape[0]
            return
        rows = [as_point(p) for p in points]
        self._size = 0
        if rows:
            self._settle_dimension(len(rows[0]))
        self._buf = self._new_buffer(max(len(rows), _INITIAL_CAPACITY))
        for row in rows:
            if len(row) != self._dimension:
                raise dimension_mismatch("PointSet", self._dimension, len(row))
            self._buf[self._size] = row
            self._size += 1

    def compress(self, keep) -> int:
        """Drop rows whose ``keep`` entry is falsy; return rows removed.

        ``keep`` is a boolean mask over the current rows — a numpy bool
        array or any sequence of truthy/falsy values.  Surviving rows keep
        their relative order; row ids are renumbered (version bump).
        """
        flags = [bool(k) for k in keep]
        if len(flags) != self._size:
            raise ValueError(
                f"mask length {len(flags)} != point count {self._size}"
            )
        removed = flags.count(False)
        if not removed:
            return 0
        self._version += 1
        self._tuple_cache = None
        mask = np.asarray(flags, dtype=bool)
        survivors = self._buf[: self._size][mask]
        self._buf = self._new_buffer(max(survivors.shape[0], _INITIAL_CAPACITY))
        self._buf[: survivors.shape[0]] = survivors
        self._size = survivors.shape[0]
        return removed

    def clear(self) -> None:
        self._version += 1
        self._tuple_cache = None
        self._size = 0
        self._buf = self._new_buffer(_INITIAL_CAPACITY)

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

    def rows(self):
        """The rows as :attr:`array` (what :meth:`replace` accepts back)."""
        return self.array

    def tuples(self) -> list[Point]:
        """The points as canonical tuples (cached until the set mutates)."""
        stamp = self.stamp
        if self._tuple_cache is not None and self._tuple_cache[0] == stamp:
            return self._tuple_cache[1]
        rows = [tuple(row) for row in self.array.tolist()]
        self._tuple_cache = (stamp, rows)
        return rows

    def row(self, index: int) -> Point:
        """One point by row id."""
        if not 0 <= index < self._size:
            raise IndexError(f"row {index} out of range for {self._size} points")
        return tuple(float(v) for v in self._buf[index])

    def __iter__(self) -> Iterator[Point]:
        return iter(self.tuples())

    def __contains__(self, point: Sequence[float]) -> bool:
        return as_point(point) in self.tuples()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointSet(dim={self._dimension}, n={self._size})"
