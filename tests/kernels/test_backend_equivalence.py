"""Property tests: both forms of a two-form op are bit-identical, and the
one-form ops are what they claim to be.

The two bulk ops (partial scores, cross-product max) are driven with the
same hypothesis-generated inputs under every routing table — all loops,
all numpy, and the shipped size thresholds, whose per-call choice must be
invisible in the results: exact float equality, both forms accumulate
left-to-right.  Dominance tests, cover carves and the structures built on
them have one form: they are checked against plain oracles, and shown to
reach no two-form op.  Dimensions e ∈ {2, 3, 4}, duplicate rows, and the
0/1 boundary coordinates are all drawn deliberately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.geometry.cover import update_cover
from repro.kernels import PointSet

from tests.conftest import KERNEL_TABLES, kernel_table, numpy_calls

# Boundary values 0.0 and 1.0 are drawn often: they exercise the cover
# carve's corner substitutions.
coord = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


def point_sets(dims=(2, 3, 4), min_size=0, max_size=24):
    """Lists of same-dimension unit vectors, duplicates allowed."""
    return st.integers(0, len(dims) - 1).flatmap(
        lambda i: st.lists(
            st.tuples(*([coord] * dims[i])), min_size=min_size, max_size=max_size
        ).flatmap(
            lambda pts: st.one_of(
                st.just(pts),
                # Re-sample with replacement to force duplicate rows.
                st.lists(st.sampled_from(pts), min_size=1, max_size=max_size)
                if pts else st.just(pts),
            )
        )
    )


def _floats(values):
    return [float(v) for v in values]


def _points(points):
    return sorted(tuple(float(v) for v in p) for p in points)


def check(normalize, fn, *args, **kwargs):
    """Assert ``fn`` gives one result under every routing table."""
    results = {}
    for name in KERNEL_TABLES:
        with kernel_table(name):
            results[name] = normalize(fn(*args, **kwargs))
    for name, value in results.items():
        assert value == results["python"], f"table {name} diverged"


def one_form(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, asserting it reaches no two-form op."""
    result = []
    assert numpy_calls(lambda: result.append(fn(*args, **kwargs))) == 0
    return result[0]


class TestDominanceOps:
    @given(point_sets(min_size=1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_dominance_masks_equal(self, points, data):
        e = len(points[0])
        q = data.draw(st.tuples(*([coord] * e)))
        ps = PointSet(e, points)
        any_dom = one_form(kernels.dominates_any, ps, q)
        assert any_dom == any(
            all(a >= b for a, b in zip(p, q)) for p in ps.tuples()
        )
        # A list of tuples — what the geometry layer holds — is an operand too.
        assert one_form(kernels.dominates_any, ps.tuples(), q) == any_dom


class TestScoreOps:
    @given(point_sets())
    @settings(max_examples=200, deadline=None)
    def test_corner_scores_bitwise_equal(self, points):
        e = len(points[0]) if points else 2
        ps = PointSet(e, points)
        check(_floats, kernels.cover_corner_scores, ps)  # exact: same order

    @given(point_sets(min_size=1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_weighted_corner_scores_bitwise_equal(self, points, data):
        e = len(points[0])
        weights = data.draw(st.tuples(*([st.floats(0.0, 2.0)] * e)))
        ps = PointSet(e, points)
        check(_floats, kernels.cover_corner_scores, ps, weights)

    @given(
        st.lists(st.floats(0.0, 2.0), max_size=12),
        st.lists(st.floats(0.0, 2.0), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_cross_product_max_equal(self, left, right):
        check(float, kernels.cross_product_max, left, right)


class TestCoverOps:
    @given(point_sets(min_size=1, max_size=12), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_cover_carve_same_point_set(self, observed, skyline_mode):
        e = len(observed[0])
        start = [kernels.ones(e)]
        carved = one_form(
            kernels.cover_carve, start, observed, skyline_mode=skyline_mode,
        )
        assert _points(carved) == _points(
            update_cover(start, observed, skyline_result=skyline_mode)
        )

    @given(point_sets(min_size=1, max_size=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_carved_covers_agree_on_probes(self, observed, data):
        e = len(observed[0])
        probe = data.draw(st.tuples(*([coord] * e)))
        carved = one_form(kernels.cover_carve, [kernels.ones(e)], observed)
        assert one_form(kernels.dominates_any, list(carved), probe) == any(
            all(a >= b for a, b in zip(p, probe)) for p in carved
        )


class TestStructureUsesKernels:
    """The geometry structures equal their loop oracles, on one form."""

    @given(point_sets(min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_incremental_skyline_same_points(self, points):
        from repro.geometry.skyline import IncrementalSkyline, skyline

        def build():
            sky = IncrementalSkyline(dimension=len(points[0]))
            for p in points:
                sky.add(p)
            return sorted(sky.points)

        assert one_form(build) == _points(skyline(points))

    @given(point_sets(min_size=1, max_size=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cover_region_same_cover(self, observed, data):
        from repro.geometry.cover import CoverRegion

        e = len(observed[0])
        probe = data.draw(st.tuples(*([coord] * e)))

        def build():
            region = CoverRegion(e, skyline_mode=True)
            region.update(observed)
            return sorted(region.points), region.covers(probe)

        points, covered = one_form(build)
        assert points == _points(
            update_cover([kernels.ones(e)], observed, skyline_result=True)
        )
        assert covered == any(all(a >= b for a, b in zip(p, probe)) for p in points)
