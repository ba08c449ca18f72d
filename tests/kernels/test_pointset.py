"""PointSet: append-only columnar storage, stable ids, and the stamp."""

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
        assert ps.tuples()[17] == (17 / 10, 17 / 10)

    def test_extend_grows_past_initial_capacity(self):
        ps = PointSet(3)
        points = [(i / 100, i / 100, i / 100) for i in range(100)]
        ps.extend(points)
        assert len(ps) == 100
        assert ps.tuples() == points


class TestStampProtocol:
    """The stamp drives lazy cache sync in prepared operands."""

    def test_stamp_is_the_row_count(self):
        ps = PointSet(2)
        assert ps.stamp == 0
        ps.append((0.1, 0.2))
        ps.extend([(0.3, 0.4), (0.5, 0.6)])
        assert ps.stamp == len(ps) == 3


class TestViews:
    def test_tuples_cached_until_mutation(self):
        ps = PointSet(2, [(0.1, 0.2)])
        first = ps.tuples()
        assert ps.tuples() is first
        ps.append((0.3, 0.4))
        assert ps.tuples() == [(0.1, 0.2), (0.3, 0.4)]

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
