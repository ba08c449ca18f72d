"""Property tests that fail if the delta carve's shortcut is ever wrong.

``cover_carve`` skylines only the fresh projections and never compares
them with the surviving cover rows (the Lemma in
:mod:`repro.geometry.cover`).  The loop oracle
``update_cover(skyline_result=True)`` still skylines the full union, so
equality with it as a point set is the executable proof.  The carve has
one form, and nothing here reaches an op that has two
(:class:`TestOneForm`).  Dimensions e ∈ 1–5, duplicates, ties and the
0/1 boundary coordinates are drawn deliberately, and batches carry
several vectors so that a later one removes an earlier one's fresh point.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.geometry.cover import CoverRegion, update_cover
from repro.geometry.skyline import is_skyline

from tests.conftest import numpy_calls

coord = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def carve_cases(draw):
    """``(e, warm-up batch, batch)``; re-sampling forces duplicate vectors."""
    e = draw(st.integers(1, 5))
    vector = st.tuples(*([coord] * e))
    warm = draw(st.lists(vector, max_size=6))
    batch = draw(st.lists(vector, min_size=1, max_size=6))
    if draw(st.booleans()):
        batch += draw(st.lists(st.sampled_from(batch), max_size=3))
    return e, warm, batch


def _carved(e, warm, batch):
    region = CoverRegion(e, skyline_mode=True)
    region.update(warm)
    region.update(batch)
    return region.points


class TestPatchAgainstLoopOracle:
    @given(carve_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_point_set_as_full_union_skyline(self, case):
        e, warm, batch = case
        start = update_cover([kernels.ones(e)], warm, skyline_result=True)
        oracle = update_cover(start, batch, skyline_result=True)
        rows = _carved(e, warm, batch)
        assert sorted(rows) == sorted(oracle)  # no duplicates either
        assert is_skyline(rows)

    @given(carve_cases())
    @settings(max_examples=150, deadline=None)
    def test_public_carve_is_the_assembled_patch(self, case):
        e, warm, batch = case
        start = update_cover([kernels.ones(e)], warm, skyline_result=True)
        keep, fresh = kernels.carve_patch(start, batch, skyline_mode=True)
        carved = kernels.cover_carve(start, batch, skyline_mode=True)
        assembled = [start[i] for i in keep] + [tuple(p) for p in fresh]
        assert [tuple(p) for p in carved] == assembled
        assert list(keep) == sorted(set(int(i) for i in keep))

    def test_later_vector_removes_an_earlier_fresh_point(self):
        # (0.5, 0.5) leaves (0.5, 1) and (1, 0.5); (0.4, 0.9) then removes
        # the first of those and projects it.
        keep, fresh = kernels.carve_patch(
            [(1.0, 1.0)], [(0.5, 0.5), (0.4, 0.9)], skyline_mode=True
        )
        assert len(keep) == 0
        assert [tuple(p) for p in fresh] == [(1.0, 0.5), (0.4, 1.0), (0.5, 0.9)]

    def test_untouched_cover_is_an_empty_patch(self):
        cover = [(0.2, 1.0), (1.0, 0.2)]
        keep, fresh = kernels.carve_patch(cover, [(0.5, 0.5)], skyline_mode=True)
        assert list(keep) == [0, 1] and len(fresh) == 0


class TestGridCarveFilters:
    """On the grid the same carve runs over rounded observations: what the
    cell formulation needed a survivor ⪰ fresh filter for is the weak
    carve's boundary case."""

    def test_survivor_can_dominate_a_projection(self):
        # Cells (7, 4), (5, 7) at r = 8, m = (2, 5): (5, 7) is unmarked and
        # its projection (5, 4) sits under the surviving (7, 4).  On corners
        # (1, 5/8) ties q on the second axis, so the weak carve removes it
        # too; it is its own projection there and comes straight back.
        keep, fresh = kernels.carve_patch(
            [(1.0, 5 / 8), (6 / 8, 1.0)], [(2 / 8, 5 / 8)], skyline_mode=True,
        )
        assert len(keep) == 0
        assert fresh == [(2 / 8, 1.0), (1.0, 5 / 8)]

    @given(
        st.lists(st.tuples(*([st.integers(0, 7)] * 3)), min_size=1, max_size=12),
        st.tuples(*([coord] * 3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_result_stays_an_antichain(self, cells, vector):
        region = CoverRegion(3, skyline_mode=True, resolution=8)
        region.update([(0.0, 0.0, 0.0)])  # emptied, then any antichain
        for cell in cells:
            region.add(tuple((c + 1) / 8 for c in cell))
        region.update([vector])
        assert is_skyline(region.points)


class TestOneForm:
    def test_no_carve_reaches_a_two_form_op(self):
        def carves():
            for e in (1, 2, 3, 5):
                start = [kernels.ones(e)]
                batch = [(0.5,) * e, (0.25,) * (e - 1) + (0.75,)]
                kernels.carve_patch(start, batch, skyline_mode=True)
                kernels.cover_carve(start, batch)
                _carved(e, batch, [(0.1,) * e])
                region = CoverRegion(e, skyline_mode=True, resolution=8)
                region.update(batch)
                region.coarsen(2)

        assert numpy_calls(carves) == 0
