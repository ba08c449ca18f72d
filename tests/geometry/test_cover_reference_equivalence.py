"""Property tests: the list-native CoverRegion matches the reference code,
and a cover on the grid is the exact cover of the rounded observations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.cover import CoverRegion, covers, update_cover
from repro.geometry.dominance import dominates, ones

unit = st.floats(0.0, 1.0, allow_nan=False)
vec2 = st.tuples(unit, unit)
vec3 = st.tuples(unit, unit, unit)
grid_vec2 = st.tuples(
    st.sampled_from([i / 8 for i in range(9)]),
    st.sampled_from([i / 8 for i in range(9)]),
)


class TestCoverRegionVsReference:
    @given(st.lists(vec2, min_size=1, max_size=10), vec2)
    @settings(max_examples=150, deadline=None)
    def test_same_covered_region_2d(self, observed, probe):
        region = CoverRegion(2, skyline_mode=True)
        reference_points = [ones(2)]
        for y in observed:
            region.update([y])
            reference_points = update_cover(
                reference_points, [y], skyline_result=True
            )
        assert region.covers(probe) == covers(reference_points, probe)

    @given(st.lists(vec3, min_size=1, max_size=6), vec3)
    @settings(max_examples=80, deadline=None)
    def test_same_covered_region_3d(self, observed, probe):
        region = CoverRegion(3, skyline_mode=True)
        reference_points = [ones(3)]
        for y in observed:
            region.update([y])
            reference_points = update_cover(
                reference_points, [y], skyline_result=True
            )
        assert region.covers(probe) == covers(reference_points, probe)

    @given(st.lists(vec2, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_same_point_sets_non_skyline_mode(self, observed):
        region = CoverRegion(2, skyline_mode=False)
        region.update(observed)
        reference = update_cover([ones(2)], observed, skyline_result=False)
        assert sorted(region.points) == sorted(reference)


def _pair(observed, resolution):
    """The exact cover and the cover on the ``resolution`` grid, both carved
    with ``observed`` one vector at a time."""
    region = CoverRegion(2, skyline_mode=True)
    grid = CoverRegion(2, skyline_mode=True, resolution=resolution)
    for y in observed:
        region.update([y])
        grid.update([y])
    return region, grid


class TestGridTreeVsExactCover:
    @given(st.lists(grid_vec2, min_size=1, max_size=8), grid_vec2)
    @settings(max_examples=120, deadline=None)
    def test_grid_equals_exact_on_grid_aligned_data(self, observed, probe):
        """Grid-aligned observations round onto themselves: the grid cover
        *is* the exact cover, point for point."""
        region, grid = _pair(observed, 8)
        assert grid.points == region.points
        assert grid.covers(probe) == region.covers(probe)

    @given(st.lists(vec2, min_size=1, max_size=8), vec2)
    @settings(max_examples=100, deadline=None)
    def test_grid_cover_is_superset_of_exact(self, observed, probe):
        """Quantization only loosens: anything exactly covered stays
        grid-covered at any resolution."""
        region, grid = _pair(observed, 16)
        if region.covers(probe):
            assert grid.covers(probe)

    @given(st.lists(grid_vec2, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_feasible_probes_always_covered_both(self, observed):
        probes = [(i / 4, j / 4) for i in range(5) for j in range(5)]
        region, grid = _pair(observed, 8)
        for probe in probes:
            feasible = not any(dominates(probe, y) for y in observed)
            if feasible:
                assert region.covers(probe)
                assert grid.covers(probe)
