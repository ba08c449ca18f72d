"""Unit and property tests for skyline computation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.dominance import dominates
from repro.geometry.skyline import IncrementalSkyline, is_skyline, skyline

points_2d = st.lists(
    st.tuples(
        st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
    ),
    max_size=60,
)
points_3d = st.lists(
    st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    ),
    max_size=40,
)


class TestSkyline:
    def test_empty(self):
        assert skyline([]) == []

    def test_single_point(self):
        assert skyline([(0.5, 0.5)]) == [(0.5, 0.5)]

    def test_dominated_point_removed(self):
        result = skyline([(0.5, 0.5), (0.6, 0.6)])
        assert result == [(0.6, 0.6)]

    def test_insertion_order_irrelevant(self):
        forward = set(skyline([(0.5, 0.5), (0.6, 0.6), (0.2, 0.9)]))
        backward = set(skyline([(0.2, 0.9), (0.6, 0.6), (0.5, 0.5)]))
        assert forward == backward == {(0.6, 0.6), (0.2, 0.9)}

    def test_incomparable_points_all_kept(self):
        staircase = [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)]
        assert set(skyline(staircase)) == set(staircase)

    def test_duplicates_collapse(self):
        assert skyline([(0.5, 0.5), (0.5, 0.5)]) == [(0.5, 0.5)]

    @given(points_2d)
    @settings(max_examples=100, deadline=None)
    def test_skyline_is_antichain_2d(self, points):
        assert is_skyline(skyline(points))

    @given(points_3d)
    @settings(max_examples=60, deadline=None)
    def test_skyline_covers_input_3d(self, points):
        result = skyline(points)
        assert is_skyline(result)
        for p in points:
            assert any(dominates(s, p) for s in result)

    @given(points_2d)
    @settings(max_examples=100, deadline=None)
    def test_skyline_subset_of_input(self, points):
        result = skyline(points)
        normalized = {tuple(float(x) for x in p) for p in points}
        assert set(result) <= normalized


class TestIsSkyline:
    def test_detects_violation(self):
        assert not is_skyline([(0.5, 0.5), (0.6, 0.6)])

    def test_accepts_antichain(self):
        assert is_skyline([(0.9, 0.1), (0.1, 0.9)])

    def test_empty_is_skyline(self):
        assert is_skyline([])


class TestIncrementalSkyline:
    def test_matches_batch_skyline(self):
        points = [(0.3, 0.7), (0.7, 0.3), (0.5, 0.5), (0.8, 0.8), (0.1, 0.1)]
        incremental = IncrementalSkyline(points)
        assert set(incremental.points) == set(skyline(points))

    def test_add_reports_change(self):
        sky = IncrementalSkyline(dimension=2)
        assert sky.add((0.5, 0.5)) is True
        assert sky.add((0.4, 0.4)) is False  # dominated
        assert sky.add((0.6, 0.6)) is True  # dominates existing

    def test_covers(self):
        sky = IncrementalSkyline([(0.5, 0.9)])
        assert sky.covers((0.5, 0.5))
        assert not sky.covers((0.6, 0.5))

    def test_len_and_contains(self):
        sky = IncrementalSkyline([(0.5, 0.9), (0.9, 0.5)])
        assert len(sky) == 2
        assert (0.5, 0.9) in sky
        assert (0.1, 0.1) not in sky

    @given(points_2d)
    @settings(max_examples=100, deadline=None)
    def test_incremental_equals_batch(self, points):
        incremental = IncrementalSkyline(dimension=2)
        for p in points:
            incremental.add(p)
        assert set(incremental.points) == set(skyline(points))

    def test_early_freeze_under_sorted_insertion(self):
        # Insert in decreasing sum order: the skyline should change rarely
        # once the top region is seen (the paper's early-freeze property).
        points = sorted(
            [(i / 20, (20 - i) / 20) for i in range(21)],
            key=sum,
            reverse=True,
        )
        sky = IncrementalSkyline(dimension=2)
        changes = sum(1 for p in points if sky.add(p))
        assert changes == len(sky)  # every change added a surviving point
