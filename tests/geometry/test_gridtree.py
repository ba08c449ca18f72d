"""Unit and property tests for the grid tree (Section 5.1.2).

The grid tree is a rounding rule: a :class:`CoverRegion` with a
``resolution`` carves observations rounded up onto the grid, and
``coarsen`` moves the cover itself onto a (coarser) grid.  Core semantic
checks:

* the rounding cover *is* the paper's cell formulation — point set, size
  and best partial score equal to :mod:`grid_oracle`'s marked cells after
  every step of any carve / halve / load sequence;
* Theorem 5.1 analogue: after any sequence of updates, every point that
  does not weakly dominate an observed vector remains covered;
* Grid tree invariant (Lemma 5.1): the cover points stay a skyline;
* resolution reduction coarsens but never uncovers;
* grid mode reaches no kernel op that has a numpy form.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.afr_bound import AFRBound
from repro.core.scoring import WeightedSum
from repro.geometry.antichain import partial
from repro.geometry.cover import CoverRegion, round_up
from repro.geometry.dominance import dominates
from repro.geometry.skyline import is_skyline

from grid_oracle import CellGrid  # same directory, no package
from tests.conftest import KERNEL_TABLES, kernel_table, numpy_calls

unit = st.floats(0.0, 1.0, allow_nan=False)
vec2 = st.tuples(unit, unit)
vec3 = st.tuples(unit, unit, unit)


def grid(dimension, resolution, **kwargs):
    """An FR* cover born on the grid — the paper's freshly built grid tree."""
    return CoverRegion(
        dimension, skyline_mode=True, resolution=resolution, **kwargs
    )


def carved(observed, resolution=None):
    """The 2-d cover left by carving ``observed`` one vector at a time."""
    cover = grid(2, resolution)
    for y in observed:
        cover.update([y])
    return cover


@st.composite
def walks(draw):
    """``(e, r, steps)``: carve a batch / halve / load an exact cover, with
    coordinates from {0, 1, a grid line k/r, anywhere}."""
    e = draw(st.integers(1, 4))
    r = draw(st.sampled_from([1, 2, 4, 8, 16, 64]))
    coord = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.integers(0, r).map(lambda k: k / r),
        unit,
    )
    vector = st.tuples(*([coord] * e))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("carve"), st.lists(vector, min_size=1, max_size=3)),
        st.tuples(st.just("halve"), st.none()),
        st.tuples(st.just("load"), st.lists(vector, max_size=4)),
    ), min_size=1, max_size=10))
    return e, r, steps


class TestAgainstTheCellFormulation:
    @given(walks())
    @settings(max_examples=400, deadline=None)
    def test_same_points_size_and_best_after_every_step(self, walk):
        e, r, steps = walk
        weights = WeightedSum((0.5, 2.0, 1.0, 0.25)[:e]).row_weights(0, e)
        cover, cells = grid(e, r, weights=weights), CellGrid(e, r)
        for kind, vectors in steps:
            if kind == "carve":
                cover.update(vectors)
                for y in vectors:
                    cells.update(y)
            elif kind == "halve":
                if cells.resolution == 1:
                    continue
                cover.coarsen(cover.resolution // 2)
                cells.halve()
            else:
                cover = CoverRegion(e, skyline_mode=True, weights=weights)
                cover.update(vectors)
                cells.load(cover.points)
                cover.coarsen(cells.resolution)
            assert sorted(cover.points) == cells.points()
            assert len(cover) == len(cells.cells)
            assert cover.best == cells.best(lambda p: partial(p, weights))

    def test_weak_carve_returns_the_boundary_corner(self):
        # Cells (7,4), (5,7) at r=8, m=(2,5): on cells (7,4) survives and
        # filters the projection (5,4); on corners (1, 5/8) is removed —
        # its second coordinate equals q's — and comes back as its own
        # projection, dominating (6/8, 5/8).
        cover = grid(2, 8)
        cover.update([(6 / 8, 5 / 8)])
        assert sorted(cover.points) == [(6 / 8, 1.0), (1.0, 5 / 8)]
        cover.update([(2 / 8, 5 / 8)])
        assert sorted(cover.points) == [(2 / 8, 1.0), (1.0, 5 / 8)]


class TestConstruction:
    def test_initial_cover_is_ideal_corner(self):
        cover = grid(2, 8)
        assert cover.points == [(1.0, 1.0)]
        assert len(cover) == 1

    def test_rejects_bad_resolution(self):
        # Refused where a resolution enters: the bound's constructor.
        with pytest.raises(ValueError):
            AFRBound(resolution=3)
        with pytest.raises(ValueError):
            AFRBound(resolution=0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            grid(-1, 8)


class TestGeometryHelpers:
    def test_quantize_up(self):
        assert round_up((0.3, 0.6), 4) == (0.5, 0.75)
        assert round_up((0.25, 1.0), 4) == (0.25, 1.0)
        assert round_up((0.0, 0.0), 4) == (0.0, 0.0)

    def test_cell_corner_dominates_loaded_point(self):
        for point in [(0.1, 0.5, 0.9), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]:
            assert dominates(round_up(point, 8), point)


class TestUpdate:
    def test_basic_slide_2d(self):
        cover = grid(2, 2)
        cover.update([(0.5, 0.5)])
        assert set(cover.points) == {(0.5, 1.0), (1.0, 0.5)}

    def test_update_with_unit_coordinate_is_noop(self):
        cover = grid(2, 4)
        cover.update([(0.5, 1.0)])
        assert cover.points == [(1.0, 1.0)]

    def test_update_at_minimum_resolution_is_noop(self):
        cover = grid(2, 1)
        cover.update([(0.1, 0.1)])
        assert cover.points == [(1.0, 1.0)]

    def test_repeated_update_idempotent(self):
        cover = grid(2, 4)
        cover.update([(0.4, 0.4)])
        points = sorted(cover.points)
        cover.update([(0.4, 0.4)])
        assert sorted(cover.points) == points

    def test_zero_vector_can_empty_the_cover(self):
        cover = grid(2, 2)
        cover.update([(0.0, 0.0)])
        assert cover.points == []

    def test_invariant_after_updates(self):
        cover = grid(2, 8)
        for s in [(0.7, 0.7), (0.4, 0.9), (0.9, 0.4), (0.2, 0.2)]:
            cover.update([s])
            assert is_skyline(cover.points)

    @given(st.lists(vec2, min_size=1, max_size=10), vec2)
    @settings(max_examples=150, deadline=None)
    def test_cover_correctness_2d(self, observed, probe):
        cover = carved(observed, 8)
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert cover.covers(probe)

    @given(st.lists(vec3, min_size=1, max_size=8), vec3)
    @settings(max_examples=80, deadline=None)
    def test_cover_correctness_3d(self, observed, probe):
        cover = grid(3, 4)
        for s in observed:
            cover.update([s])
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert cover.covers(probe)

    @given(st.lists(vec2, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_invariant_is_maintained_2d(self, observed):
        assert is_skyline(carved(observed, 8).points)

    @given(st.lists(vec3, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_invariant_is_maintained_3d(self, observed):
        cover = grid(3, 4)
        for s in observed:
            cover.update([s])
        assert is_skyline(cover.points)


class TestLoadAndInitialize:
    def test_load_points_covers_them(self):
        cover = carved([(0.3, 0.9), (0.9, 0.3), (0.5, 0.5)])
        exact = cover.points
        cover.coarsen(8)
        for p in exact:
            assert cover.covers(p)

    def test_load_enforces_invariant(self):
        cover = carved([(0.4, 0.6)])  # exact: (0.4, 1), (1, 0.6)
        cover.coarsen(2)  # (0.5, 1) sits under (1, 1)
        assert cover.points == [(1.0, 1.0)]


class TestResolutionReduction:
    def test_reduce_halves_resolution(self):
        cover = carved([(0.3, 0.3)], 8)
        cover.coarsen(4)
        assert cover.resolution == 4
        assert sorted(cover.points) == [(0.5, 1.0), (1.0, 0.5)]

    def test_reduce_to_minimum_gives_corner_cover(self):
        cover = carved([(0.4, 0.4)], 4)
        while cover.resolution > 1:
            cover.coarsen(cover.resolution // 2)
        assert cover.points == [(1.0, 1.0)]

    @given(st.lists(vec2, min_size=1, max_size=8), vec2)
    @settings(max_examples=100, deadline=None)
    def test_reduction_never_uncovers(self, observed, probe):
        cover = carved(observed, 8)
        covered_before = cover.covers(probe)
        while cover.resolution > 1:
            cover.coarsen(cover.resolution // 2)
            if covered_before:
                assert cover.covers(probe)

    @given(st.lists(vec3, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_reduction_keeps_invariant(self, observed):
        cover = grid(3, 8)
        for s in observed:
            cover.update([s])
        while cover.resolution > 1:
            cover.coarsen(cover.resolution // 2)
            assert is_skyline(cover.points)


@pytest.mark.parametrize("backend", KERNEL_TABLES)
class TestEdgeCasesAcrossBackends:
    """Degenerate grids behave identically under every routing table."""

    def test_minimum_resolution_degenerates_to_corner_bound(self, backend):
        with kernel_table(backend):
            # One cell per dimension (the paper's L = 0): updates are no-ops
            # and the cover is pinned at the ideal corner — HRJN* regime.
            cover = grid(2, 1)
            assert cover.points == [(1.0, 1.0)]
            cover.update([(0.1, 0.1), (0.0, 0.0)])
            assert cover.points == [(1.0, 1.0)]
            assert cover.covers((0.99, 0.99))
            loaded = carved([(0.2, 0.8), (0.2, 0.8), (0.7, 0.7)])
            loaded.coarsen(1)
            assert loaded.points == [(1.0, 1.0)]

    def test_duplicate_corners_collapse(self, backend):
        with kernel_table(backend):
            # Distinct points rounding onto the same corner: one survives.
            cover = carved([(0.30, 0.30), (0.0, 0.36), (0.36, 0.0)])
            assert sorted(cover.points) == [(0.30, 0.36), (0.36, 0.30)]
            cover.coarsen(8)
            assert cover.points == [(0.375, 0.375)]

    def test_duplicate_projected_corners_after_carve(self, backend):
        with kernel_table(backend):
            cover = grid(2, 4)
            # Carving the top cell twice with equivalent vectors must not
            # re-introduce removed corners or duplicate the slid ones.
            cover.update([(0.6, 0.6)])
            first = sorted(cover.points)
            assert first == [(0.75, 1.0), (1.0, 0.75)]
            cover.update([(0.6, 0.6)])
            assert sorted(cover.points) == first

    def test_empty_carve_on_empty_marked_set(self, backend):
        with kernel_table(backend):
            cover = grid(2, 2)
            cover.update([(0.0, 0.0)])  # empties the cover
            assert cover.points == []
            assert cover.covers((0.5, 0.5)) is False
            cover.update([(0.5, 0.5)])
            assert cover.points == []

    def test_update_sequence_identical_marked_sets(self, backend):
        sequence = [(0.7, 0.7), (0.4, 0.9), (0.9, 0.4), (0.2, 0.2)]
        cells = CellGrid(2, 8)
        for s in sequence:
            cells.update(s)
        with kernel_table(backend):
            assert sorted(carved(sequence, 8).points) == cells.points()


def test_grid_mode_reaches_no_two_form_op():
    def walk():
        for e in (2, 3):
            cover = grid(e, 16, weights=(0.5,) * e)
            cover.update([(0.3,) * e, (0.7,) * (e - 1) + (0.1,)])
            cover.coarsen(4)
            cover.update([(0.2,) * e])

    assert numpy_calls(walk) == 0
