"""Property tests: every kernel tier is bit-identical to the reference.

Every op is driven with the same hypothesis-generated inputs under the
pure-Python reference and each comparison kernel — ``numpy`` and the
size-aware ``auto`` dispatcher, which must be bit-identical *by
construction* no matter which tier each call lands on.
Dominance tests, skyline index lists, partial scores (exact float
equality — all tiers accumulate left-to-right) and cover carves must
agree.  Dimensions e ∈ {2, 3, 4}, duplicate rows, and the 0/1 boundary
coordinates are all drawn deliberately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import PointSet, use_backend

#: Kernels compared against the "python" reference; "auto" because
#: per-call dispatch must be invisible in the results.
COMPARE = ["numpy", "auto"]

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


def variants(fn, *args, **kwargs):
    """(reference result, {kernel name: result}) for one op call."""
    with use_backend("python"):
        base = fn(*args, **kwargs)
    others = {}
    for name in COMPARE:
        with use_backend(name):
            others[name] = fn(*args, **kwargs)
    return base, others


def check(normalize, fn, *args, **kwargs):
    """Assert every comparison kernel matches the reference; return it."""
    base, others = variants(fn, *args, **kwargs)
    expected = normalize(base)
    for name, value in others.items():
        assert normalize(value) == expected, f"kernel {name} diverged"
    return base


class TestDominanceOps:
    @given(point_sets(min_size=1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_dominance_masks_equal(self, points, data):
        e = len(points[0])
        q = data.draw(st.tuples(*([coord] * e)))
        ps = PointSet(e, points)
        any_dom = check(bool, kernels.dominates_any, ps, q)
        assert any_dom == any(
            all(a >= b for a, b in zip(p, q)) for p in ps.tuples()
        )
        # A list of tuples — what the geometry layer holds — is an operand too.
        assert check(bool, kernels.dominates_any, ps.tuples(), q) == any_dom


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
        check(
            _points,
            kernels.cover_carve, start, observed, skyline_mode=skyline_mode,
        )

    @given(point_sets(min_size=1, max_size=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_carved_covers_agree_on_probes(self, observed, data):
        e = len(observed[0])
        probe = data.draw(st.tuples(*([coord] * e)))
        carved = check(
            _points, kernels.cover_carve, [kernels.ones(e)], observed
        )
        check(bool, kernels.dominates_any, list(carved), probe)


class TestStructureUsesKernels:
    """End-to-end geometry structures agree across every kernel."""

    @given(point_sets(min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_incremental_skyline_same_points(self, points):
        from repro.geometry.skyline import IncrementalSkyline

        results = {}
        for name in ["python"] + COMPARE:
            with use_backend(name):
                sky = IncrementalSkyline(dimension=len(points[0]))
                for p in points:
                    sky.add(p)
                results[name] = sorted(sky.points)
        for name in COMPARE:
            assert results[name] == results["python"], name

    @given(point_sets(min_size=1, max_size=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cover_region_same_cover(self, observed, data):
        from repro.geometry.cover import CoverRegion

        e = len(observed[0])
        probe = data.draw(st.tuples(*([coord] * e)))
        results = {}
        for name in ["python"] + COMPARE:
            with use_backend(name):
                region = CoverRegion(e, skyline_mode=True)
                region.update(observed)
                results[name] = (sorted(region.points), region.covers(probe))
        for name in COMPARE:
            assert results[name] == results["python"], name
