"""Unit and property tests for the grid tree (Section 5.1.2).

Core semantic checks:

* Theorem 5.1 analogue: after any sequence of updates, every point that
  does not weakly dominate an observed vector remains covered.
* Grid tree invariant (Lemma 5.1): the marked set stays an antichain, so
  the induced cover points form a skyline.
* Resolution reduction coarsens but never uncovers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.dominance import dominates
from repro.geometry.gridtree import GridTree, _partial_deltas
from repro.geometry.skyline import is_skyline
from repro.kernels import use_backend

unit = st.floats(0.0, 1.0, allow_nan=False)
vec2 = st.tuples(unit, unit)
vec3 = st.tuples(unit, unit, unit)

#: Every kernel the grid tree must behave identically under: the two
#: implementation tiers plus size-aware per-call dispatch.
BACKENDS = ["python", "numpy", "auto"]


class TestConstruction:
    def test_initial_cover_is_ideal_corner(self):
        tree = GridTree(2, 8)
        assert tree.cover_points() == [(1.0, 1.0)]
        assert tree.num_marked == 1

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            GridTree(2, 3)
        with pytest.raises(ValueError):
            GridTree(2, 0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridTree(0, 8)

    def test_partial_deltas_count(self):
        # 2^e - 2 partial-up offsets (excluding zero and the diagonal).
        assert len(_partial_deltas(2)) == 2
        assert len(_partial_deltas(3)) == 6
        assert len(_partial_deltas(4)) == 14


class TestGeometryHelpers:
    def test_upper_corner(self):
        tree = GridTree(2, 4)
        assert tree.upper_corner((0, 0)) == (0.25, 0.25)
        assert tree.upper_corner((3, 3)) == (1.0, 1.0)

    def test_cell_containing_rounds_up(self):
        tree = GridTree(2, 4)
        assert tree.cell_containing((0.3, 0.3)) == (1, 1)  # corner (0.5, 0.5)
        assert tree.cell_containing((0.25, 0.25)) == (0, 0)  # exact corner
        assert tree.cell_containing((0.0, 1.0)) == (0, 3)

    def test_quantize_up(self):
        tree = GridTree(2, 4)
        assert tree.quantize_up((0.3, 0.6)) == (0.5, 0.75)
        assert tree.quantize_up((0.25, 1.0)) == (0.25, 1.0)
        assert tree.quantize_up((0.0, 0.0)) == (0.0, 0.0)

    def test_cell_corner_dominates_loaded_point(self):
        tree = GridTree(3, 8)
        for point in [(0.1, 0.5, 0.9), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]:
            corner = tree.upper_corner(tree.cell_containing(point))
            assert dominates(corner, point)


class TestUpdate:
    def test_basic_slide_2d(self):
        tree = GridTree(2, 2)
        changed = tree.update((0.5, 0.5))
        assert changed
        assert set(tree.cover_points()) == {(0.5, 1.0), (1.0, 0.5)}

    def test_update_with_unit_coordinate_is_noop(self):
        tree = GridTree(2, 4)
        assert tree.update((0.5, 1.0)) is False

    def test_update_at_minimum_resolution_is_noop(self):
        tree = GridTree(2, 1)
        assert tree.update((0.1, 0.1)) is False
        assert tree.cover_points() == [(1.0, 1.0)]

    def test_repeated_update_idempotent(self):
        tree = GridTree(2, 4)
        tree.update((0.4, 0.4))
        points = tree.cover_points()
        assert tree.update((0.4, 0.4)) is False
        assert tree.cover_points() == points

    def test_zero_vector_can_empty_the_cover(self):
        tree = GridTree(2, 2)
        tree.update((0.0, 0.0))
        assert tree.cover_points() == []

    def test_invariant_after_updates(self):
        tree = GridTree(2, 8)
        for s in [(0.7, 0.7), (0.4, 0.9), (0.9, 0.4), (0.2, 0.2)]:
            tree.update(s)
            assert is_skyline(tree.cover_points())
            for cell in tree.marked_cells:
                assert tree.covered_count(cell) == 0

    @given(st.lists(vec2, min_size=1, max_size=10), vec2)
    @settings(max_examples=150, deadline=None)
    def test_cover_correctness_2d(self, observed, probe):
        tree = GridTree(2, 8)
        for s in observed:
            tree.update(s)
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert tree.covers(probe)

    @given(st.lists(vec3, min_size=1, max_size=8), vec3)
    @settings(max_examples=80, deadline=None)
    def test_cover_correctness_3d(self, observed, probe):
        tree = GridTree(3, 4)
        for s in observed:
            tree.update(s)
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert tree.covers(probe)

    @given(st.lists(vec2, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_invariant_is_maintained_2d(self, observed):
        tree = GridTree(2, 8)
        for s in observed:
            tree.update(s)
        assert is_skyline(tree.cover_points())

    @given(st.lists(vec3, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_invariant_is_maintained_3d(self, observed):
        tree = GridTree(3, 4)
        for s in observed:
            tree.update(s)
        assert is_skyline(tree.cover_points())


class TestLoadAndInitialize:
    def test_load_points_covers_them(self):
        tree = GridTree(2, 8)
        points = [(0.3, 0.9), (0.9, 0.3), (0.5, 0.5)]
        tree.load_points(points)
        for p in points:
            assert tree.covers(p)

    def test_load_enforces_invariant(self):
        tree = GridTree(2, 8)
        tree.load_points([(0.2, 0.2), (0.9, 0.9)])  # first is dominated
        assert is_skyline(tree.cover_points())
        assert tree.num_marked == 1

    def test_initialize_removes_dominated_marks(self):
        tree = GridTree(2, 4)
        tree.marked_cells = {(0, 0), (3, 3), (1, 2)}
        tree.initialize()
        assert tree.marked_cells == {(3, 3)}


class TestResolutionReduction:
    def test_reduce_halves_resolution(self):
        tree = GridTree(2, 8)
        assert tree.reduce_resolution() == 4
        assert tree.resolution == 4

    def test_reduce_at_minimum_raises(self):
        tree = GridTree(2, 1)
        with pytest.raises(ValueError):
            tree.reduce_resolution()

    def test_reduce_to_minimum_gives_corner_cover(self):
        tree = GridTree(2, 4)
        tree.update((0.4, 0.4))
        while tree.resolution > 1:
            tree.reduce_resolution()
        assert tree.cover_points() == [(1.0, 1.0)]

    @given(st.lists(vec2, min_size=1, max_size=8), vec2)
    @settings(max_examples=100, deadline=None)
    def test_reduction_never_uncovers(self, observed, probe):
        tree = GridTree(2, 8)
        for s in observed:
            tree.update(s)
        covered_before = tree.covers(probe)
        while tree.resolution > 1:
            tree.reduce_resolution()
            if covered_before:
                assert tree.covers(probe)

    @given(st.lists(vec3, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_reduction_keeps_invariant(self, observed):
        tree = GridTree(3, 8)
        for s in observed:
            tree.update(s)
        while tree.resolution > 1:
            tree.reduce_resolution()
            assert is_skyline(tree.cover_points())


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeCasesAcrossBackends:
    """Degenerate grids behave identically under every kernel tier."""

    def test_minimum_resolution_degenerates_to_corner_bound(self, backend):
        # One cell per dimension (the paper's L = 0): updates are no-ops
        # and the cover is pinned at the ideal corner — HRJN* regime.
        with use_backend(backend):
            tree = GridTree(2, 1)
            assert tree.cover_points() == [(1.0, 1.0)]
            assert tree.update((0.1, 0.1)) is False
            assert tree.update((0.0, 0.0)) is False
            assert tree.cover_points() == [(1.0, 1.0)]
            assert tree.covers((0.99, 0.99))
            tree.load_points([(0.2, 0.8), (0.2, 0.8), (0.7, 0.7)])
            assert tree.cover_points() == [(1.0, 1.0)]
            with pytest.raises(ValueError):
                tree.reduce_resolution()

    def test_duplicate_corners_collapse(self, backend):
        with use_backend(backend):
            tree = GridTree(2, 8)
            # Distinct points quantizing onto the same cell, plus exact
            # duplicates: the marked set must dedup to a single cell.
            tree.load_points([(0.31, 0.31), (0.35, 0.35), (0.35, 0.35)])
            assert tree.num_marked == 1
            assert tree.marked_cells == {(2, 2)}

    def test_duplicate_projected_corners_after_carve(self, backend):
        with use_backend(backend):
            tree = GridTree(2, 4)
            # Carving the top cell twice with equivalent vectors must not
            # re-introduce removed corners or duplicate the slid ones.
            assert tree.update((0.6, 0.6)) is True
            first = tree.marked_cells
            assert tree.update((0.6, 0.6)) is False
            assert tree.marked_cells == first
            assert is_skyline(tree.cover_points())

    def test_empty_carve_on_empty_marked_set(self, backend):
        with use_backend(backend):
            tree = GridTree(2, 2)
            assert tree.update((0.0, 0.0)) is True  # empties the cover
            assert tree.cover_points() == []
            assert tree.covers((0.5, 0.5)) is False
            # Carving an already-empty marked set reports "unchanged".
            assert tree.update((0.5, 0.5)) is False
            assert tree.cover_points() == []

    def test_update_sequence_identical_marked_sets(self, backend):
        sequence = [(0.7, 0.7), (0.4, 0.9), (0.9, 0.4), (0.2, 0.2)]
        with use_backend("python"):
            reference = GridTree(2, 8)
            for s in sequence:
                reference.update(s)
        with use_backend(backend):
            tree = GridTree(2, 8)
            for s in sequence:
                tree.update(s)
            assert tree.marked_cells == reference.marked_cells


class TestCoveredCount:
    def test_top_cell_initially_uncovered(self):
        tree = GridTree(2, 4)
        assert tree.covered_count((3, 3)) == 0

    def test_neighbour_of_marked_is_covered(self):
        tree = GridTree(2, 4)  # (3, 3) marked
        assert tree.covered_count((3, 2)) == 1
        assert tree.covered_count((2, 3)) == 1

    def test_diagonal_down_not_counted_via_strong_dominance(self):
        tree = GridTree(2, 4)
        # (2, 2)'s partial-up neighbours are (2, 3) and (3, 2); both are
        # strictly dominated by the marked (3, 3), so covered = 2.
        assert tree.covered_count((2, 2)) == 2
