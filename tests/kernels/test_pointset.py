"""PointSet: columnar storage semantics, stable ids, and the stamp protocol."""

import numpy as np
import pytest

from repro.kernels import PointSet


class TestConstruction:
    def test_empty_dimensionless(self):
        ps = PointSet()
        assert len(ps) == 0
        assert ps.dimension is None
        assert ps.tuples() == []
        assert list(ps) == []

    def test_dimension_inferred_from_first_point(self):
        ps = PointSet()
        ps.append((0.5, 0.25))
        assert ps.dimension == 2
        with pytest.raises(ValueError, match="dimension mismatch"):
            ps.append((0.1, 0.2, 0.3))

    def test_explicit_dimension_enforced(self):
        ps = PointSet(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ps.append((0.1, 0.2))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            PointSet(-1)

    def test_initial_points(self):
        ps = PointSet(2, [(0.1, 0.2), (0.3, 0.4)])
        assert ps.tuples() == [(0.1, 0.2), (0.3, 0.4)]


class TestMutation:
    def test_append_returns_stable_row_ids(self):
        ps = PointSet(2)
        ids = [ps.append((i / 10, i / 10)) for i in range(40)]
        assert ids == list(range(40))  # survives capacity doubling
        assert ps.row(17) == (17 / 10, 17 / 10)

    def test_extend_grows_past_initial_capacity(self):
        ps = PointSet(3)
        points = [(i / 100, i / 100, i / 100) for i in range(100)]
        ps.extend(points)
        assert len(ps) == 100
        assert ps.tuples() == points

    def test_replace_from_iterable(self):
        ps = PointSet(2, [(0.1, 0.1)])
        ps.replace([(0.9, 0.9), (0.8, 0.7)])
        assert ps.tuples() == [(0.9, 0.9), (0.8, 0.7)]

    def test_replace_from_pointset(self):
        source = PointSet(2, [(0.5, 0.5)])
        ps = PointSet(2, [(0.1, 0.1), (0.2, 0.2)])
        ps.replace(source)
        assert ps.tuples() == [(0.5, 0.5)]

    def test_replace_from_array_copies(self):
        import numpy as np

        arr = np.array([[0.3, 0.4], [0.5, 0.6]])
        ps = PointSet(2)
        ps.replace(arr)
        arr[0, 0] = 99.0  # mutating the source must not leak in
        assert ps.tuples() == [(0.3, 0.4), (0.5, 0.6)]

    def test_compress_keeps_relative_order(self):
        ps = PointSet(2, [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4)])
        removed = ps.compress([True, False, True, False])
        assert removed == 2
        assert ps.tuples() == [(0.1, 0.1), (0.3, 0.3)]

    def test_compress_mask_length_checked(self):
        ps = PointSet(2, [(0.1, 0.1)])
        with pytest.raises(ValueError, match="mask length"):
            ps.compress([True, False])

    def test_clear(self):
        ps = PointSet(2, [(0.1, 0.1)])
        ps.clear()
        assert len(ps) == 0
        assert ps.tuples() == []


class TestStampProtocol:
    """The (version, size) stamp drives lazy cache sync in prepared operands."""

    def test_append_grows_size_same_version(self):
        ps = PointSet(2)
        v0, s0 = ps.stamp
        ps.append((0.1, 0.2))
        v1, s1 = ps.stamp
        assert v1 == v0 and s1 == s0 + 1

    def test_replace_bumps_version(self):
        ps = PointSet(2, [(0.1, 0.1)])
        v0 = ps.version
        ps.replace([(0.2, 0.2)])
        assert ps.version > v0

    def test_compress_bumps_version_only_when_rows_drop(self):
        ps = PointSet(2, [(0.1, 0.1), (0.2, 0.2)])
        v0 = ps.version
        assert ps.compress([True, True]) == 0
        assert ps.version == v0  # no-op compress keeps caches valid
        ps.compress([True, False])
        assert ps.version > v0

    def test_clear_bumps_version(self):
        ps = PointSet(2, [(0.1, 0.1)])
        v0 = ps.version
        ps.clear()
        assert ps.version > v0


class TestViews:
    def test_tuples_cached_until_mutation(self):
        ps = PointSet(2, [(0.1, 0.2)])
        first = ps.tuples()
        assert ps.tuples() is first
        ps.append((0.3, 0.4))
        assert ps.tuples() == [(0.1, 0.2), (0.3, 0.4)]

    def test_row_bounds_checked(self):
        ps = PointSet(2, [(0.1, 0.2)])
        with pytest.raises(IndexError):
            ps.row(1)
        with pytest.raises(IndexError):
            ps.row(-1)

    def test_contains(self):
        ps = PointSet(2, [(0.1, 0.2)])
        assert (0.1, 0.2) in ps
        assert [0.1, 0.2] in ps  # as_point normalization
        assert (0.9, 0.9) not in ps

    def test_array_view_matches_tuples(self):
        ps = PointSet(2, [(0.1, 0.2), (0.3, 0.4)])
        assert ps.array.shape == (2, 2)
        assert [tuple(row) for row in ps.array.tolist()] == ps.tuples()

    def test_array_on_dimensionless_empty(self):
        assert PointSet().array.shape == (0, 0)

    def test_rows_view(self):
        ps = PointSet(2, [(0.1, 0.2)])
        rows = ps.rows()
        assert len(rows) == 1
        assert tuple(rows[0]) == (0.1, 0.2)
