"""Unit and property tests for scoring functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.geometry import ScoredAntichain, skyline
from repro.geometry.antichain import partial
from repro.kernels import PointSet
from repro.core.scoring import (
    NEG_INF,
    AverageScore,
    CallableScore,
    MinScore,
    ProductScore,
    ScoringFunction,
    SumScore,
    WeightedSum,
    check_monotone,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


def _cover_max(scoring, left, right):
    """``cover_max`` over the operand kind FR* holds: scored antichains —
    the skylines, which attain the maximum of a monotone ``S``."""
    split, width = len(left[0]), len(right[0])
    return scoring.cover_max(
        ScoredAntichain(skyline(left), weights=scoring.row_weights(0, split)),
        ScoredAntichain(
            skyline(right), weights=scoring.row_weights(split, width)
        ),
    )


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


#: Every built-in scoring over 5-coordinate vectors; only the first two are
#: weighted sums.
SCORINGS = {
    "sum": SumScore(),
    "weighted": WeightedSum([0.7, 1.0, 1.3, 0.25, 2.0]),
    "average": AverageScore(),
    "min": MinScore(),
    "product": ProductScore(),
    "callable": CallableScore(lambda v: max(v, default=0.0), name="max"),
}
WIDTH = 5
#: ``(offset, width)``: runs of the 5-wide vector an operand may own.
RUNS = [(0, 2), (2, 3), (1, 1), (4, 1), (0, 5), (3, 0)]


class TestSumScore:
    def test_basic(self):
        assert SumScore()((0.2, 0.3, 0.5)) == pytest.approx(1.0)

    def test_empty_vector(self):
        assert SumScore()(()) == 0.0

    def test_batch_matches_scalar(self):
        vectors = np.array([[0.1, 0.2], [0.5, 0.5]])
        scoring = SumScore()
        assert scoring.batch(vectors).tolist() == [
            scoring(tuple(v)) for v in vectors.tolist()
        ]

    def test_max_combination_empty_sets(self):
        scoring = SumScore()
        assert scoring.max_combination([], [(0.5,)]) == NEG_INF
        assert scoring.max_combination([(0.5,)], []) == NEG_INF

    def test_max_combination(self):
        scoring = SumScore()
        left = [(0.1, 0.9), (0.5, 0.5)]
        right = [(0.2,), (0.8,)]
        assert scoring.max_combination(left, right) == pytest.approx(1.8)

    def test_max_combination_matches_bruteforce(self):
        scoring = SumScore()
        rng = np.random.default_rng(0)
        left = [tuple(v) for v in rng.random((7, 2))]
        right = [tuple(v) for v in rng.random((5, 3))]
        brute = max(scoring(a + b) for a in left for b in right)
        assert scoring.max_combination(left, right) == pytest.approx(brute)

    def test_separable_shortcut_matches_cross_product(self):
        scoring = SumScore()
        rng = np.random.default_rng(1)
        left = [tuple(v) for v in rng.random((6, 2))]
        right = [tuple(v) for v in rng.random((6, 2))]
        # cover_max is the production form of the separable identity.
        assert _cover_max(scoring, left, right) == scoring.max_combination(left, right)

    def test_zero_dimensional_operand(self):
        scoring = SumScore()
        assert scoring.max_combination([()], [(0.5,)]) == pytest.approx(0.5)


class TestWeightedSum:
    def test_basic(self):
        scoring = WeightedSum([0.4, 0.1, 0.5])
        assert scoring((1.0, 1.0, 1.0)) == pytest.approx(1.0)
        assert scoring((0.5, 0.0, 1.0)) == pytest.approx(0.7)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedSum([0.5, -0.1])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            WeightedSum([0.5, 0.5])((1.0,))

    def test_batch_matches_scalar(self):
        scoring = WeightedSum([0.3, 0.7])
        vectors = np.array([[0.1, 0.2], [1.0, 0.0]])
        assert scoring.batch(vectors).tolist() == [
            scoring(tuple(v)) for v in vectors.tolist()
        ]

    def test_max_combination_matches_bruteforce(self):
        scoring = WeightedSum([0.2, 0.3, 0.5])
        rng = np.random.default_rng(2)
        left = [tuple(v) for v in rng.random((6, 1))]
        right = [tuple(v) for v in rng.random((4, 2))]
        brute = max(scoring(a + b) for a in left for b in right)
        assert scoring.max_combination(left, right) == pytest.approx(brute)
        assert _cover_max(scoring, left, right) == pytest.approx(brute)

    def test_monotone(self):
        assert check_monotone(WeightedSum([0.3, 0.7]), 2)


class TestOtherAggregates:
    def test_average(self):
        assert AverageScore()((0.2, 0.4)) == pytest.approx(0.3)
        assert AverageScore()(()) == 0.0

    def test_min(self):
        assert MinScore()((0.2, 0.9)) == pytest.approx(0.2)
        assert MinScore()(()) == 1.0

    def test_product(self):
        assert ProductScore()((0.5, 0.5)) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            ProductScore()((-0.5, 0.5))

    def test_batches_match_scalars(self):
        vectors = np.array([[0.2, 0.9], [0.7, 0.1]])
        for scoring in (AverageScore(), MinScore(), ProductScore()):
            assert scoring.batch(vectors).tolist() == [
                scoring(tuple(v)) for v in vectors.tolist()
            ]

    @pytest.mark.parametrize(
        "scoring", [SumScore(), AverageScore(), MinScore(), ProductScore()]
    )
    def test_all_are_monotone(self, scoring):
        assert check_monotone(scoring, 3)

    def test_callable_wrapper(self):
        scoring = CallableScore(lambda v: max(v), name="max")
        assert scoring((0.1, 0.9)) == pytest.approx(0.9)
        assert check_monotone(scoring, 2)

    def test_check_monotone_catches_non_monotone(self):
        bad = CallableScore(lambda v: -sum(v))
        assert not check_monotone(bad, 2)


class TestDecomposition:
    """``row_weights`` alone says whether ``S`` decomposes, and what is
    derived from it keeps the bits of the definitions."""

    @pytest.mark.parametrize("offset, width", RUNS)
    @pytest.mark.parametrize("name", SCORINGS)
    def test_padded_batch_is_the_batch_of_the_zero_padding(
        self, name, offset, width
    ):
        scoring = SCORINGS[name]
        rows = np.random.default_rng(10 * offset + width).random((9, width))
        rows[0], rows[1] = 0.0, 1.0
        padded = np.zeros((len(rows), WIDTH))
        padded[:, offset:offset + width] = rows
        got = scoring.padded_batch(rows, offset, WIDTH)
        assert bits(got) == bits(scoring.batch(padded))
        weights = scoring.row_weights(offset, width)
        if weights is not None:
            assert len(weights) == width
            assert bits(partial(row, weights) for row in rows.tolist()) == bits(got)

    @pytest.mark.parametrize("name", SCORINGS)
    def test_only_the_weighted_sums_have_row_weights(self, name):
        weighted = name in ("sum", "weighted")
        for run in RUNS:
            assert (SCORINGS[name].row_weights(*run) is not None) == weighted

    @pytest.mark.parametrize("split", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", SCORINGS)
    def test_cover_max_over_scored_antichains_is_max_combination(
        self, name, split
    ):
        scoring = SCORINGS[name]
        rng = np.random.default_rng(split)
        left = [tuple(row) for row in rng.random((12, split)).tolist()]
        right = [tuple(row) for row in rng.random((12, WIDTH - split)).tolist()]
        left, right = skyline(left), skyline(right)
        assert _cover_max(scoring, left, right) == scoring.max_combination(
            left, right
        )


class TestGenericMaxCombination:
    """The default pairwise enumeration used by non-additive aggregates."""

    @given(
        st.lists(st.tuples(unit, unit), min_size=1, max_size=6),
        st.lists(st.tuples(unit,), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_for_min(self, left, right):
        scoring = MinScore()
        brute = max(scoring(a + b) for a in left for b in right)
        assert scoring.max_combination(left, right) == pytest.approx(brute)

    @given(
        st.lists(st.tuples(unit, unit), min_size=1, max_size=6),
        st.lists(st.tuples(unit, unit), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_vectorized_equals_generic(self, left, right):
        summed = SumScore()
        generic = ScoringFunction.max_combination(summed, left, right)
        assert summed.max_combination(left, right) == pytest.approx(generic)


class TestPatchedOperands:
    """An additive operand synced through the stamp equals one built from
    scratch, bit for bit, and its maintained maximum gives the cover bound.
    (A carve's patch no longer reaches a ``PointSet``: the carried-partials
    half of this lives in ``tests/geometry/test_antichain.py``.)"""

    weights = (0.7, 1.0, 1.3)
    vec3 = st.tuples(unit, unit, unit)
    # (the appended row, read the operand after this step?)
    steps = st.lists(st.tuples(vec3, st.booleans()), max_size=24)

    @given(steps)
    @settings(max_examples=200, deadline=None)
    def test_partials_equal_from_scratch_after_any_interleaving(self, steps):
        ps = PointSet(3)
        operand = WeightedSum(self.weights).prepare(source=ps)
        for row, read in steps + [((0.5, 0.5, 0.5), True)]:
            ps.append(row)
            if not read:
                continue  # the view falls one or more appends behind
            scratch = [
                float(v)
                for v in kernels.cover_corner_scores(ps.array, self.weights)
            ]
            assert operand.partials.tolist() == scratch
            assert operand.best == max(scratch, default=NEG_INF)

    def test_stamp_semantics(self, monkeypatch):
        scored = []
        real = kernels.cover_corner_scores

        def counting(points, weights=None):
            scored.append(len(points))
            return real(points, weights)

        monkeypatch.setattr(kernels, "cover_corner_scores", counting)
        ps = PointSet(3, [(0.1 * i, 0.5, 0.5) for i in range(1, 7)])
        operand = SumScore().prepare(source=ps)
        operand.partials
        assert scored == [6]
        ps.append((0.2, 0.2, 0.2))
        ps.append((0.4, 0.4, 0.4))
        operand.partials
        operand.best
        assert scored == [6, 2]  # appends extend: only the new rows
        assert len(operand.partials) == ps.stamp == 8

    @given(
        st.lists(vec3, max_size=8),
        st.lists(st.tuples(unit, unit), max_size=8),
        st.tuples(*([st.floats(0.0, 2.0)] * 5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_of_maxima_is_the_cross_product_max(self, left, right, weights):
        # Empty sides included: -inf + x == -inf, as the cross product says.
        for scoring in (SumScore(), WeightedSum(weights)):
            l_op = scoring.prepare(offset=0, source=PointSet(3, left))
            r_op = scoring.prepare(offset=3, source=PointSet(2, right))
            cross = kernels.cross_product_max(l_op.partials, r_op.partials)
            assert l_op.best + r_op.best == cross
            assert scoring.cover_max(l_op, r_op) == cross
            assert scoring.max_prepared(l_op, r_op) == cross
            # Operand kinds mix: plain FR pairs a cover (list-native) with
            # its seen column (prepared), FR* two list-native sets.
            chain = ScoredAntichain(
                left, weights=scoring.row_weights(0, 3), dimension=3)
            assert scoring.max_prepared(chain, r_op) == cross
            assert scoring.cover_max(chain, r_op) == cross

    def test_non_additive_cover_max_is_the_cross_product(self):
        scoring = MinScore()
        l_op = scoring.prepare(source=PointSet(1, [(0.2,), (0.9,)]))
        r_op = scoring.prepare(source=PointSet(1, [(0.5,), (0.7,)]))
        assert scoring.cover_max(l_op, r_op) == 0.7
