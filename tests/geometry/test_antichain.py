"""The list-native scored antichain against the loop oracles.

:class:`ScoredAntichain` replaced columnar ``PointSet`` storage patched
through stamps under ``CoverRegion`` and ``IncrementalSkyline``.  The
oracles are the plain loops ``update_cover(skyline_result=True)`` (which
still skylines the full union) and ``skyline()``; on top of the point set
the property pins the *row order* and the carried scores:
``partials[i]`` is bitwise ``partial(points[i], weights)`` (and the
kernels' partial score of that row), ``best`` their maximum.

The documented order has two cases.  A 2-D antichain is a *staircase*:
ascending on axis 0, strictly descending on axis 1, every mutation one
bisection and one slice — so at e=2 the property is set-equality with the
oracles plus that order.  Every other dimension has no staircase and keeps
the patch's order — kept rows ascending, then the fresh rows sorted per
vector — row for row.  No mutation reaches a kernel op with a numpy form
(:meth:`TestAgainstLoopOracles.test_no_mutation_reaches_a_two_form_op`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.scoring import NEG_INF, MinScore, SumScore, WeightedSum
from repro.geometry import CoverRegion, IncrementalSkyline, ScoredAntichain
from repro.geometry import antichain
from repro.geometry.antichain import partial
from repro.geometry.cover import round_up, update_cover
from repro.geometry.dominance import dominates
from repro.geometry.skyline import is_skyline, skyline
from repro.kernels import PointSet

from tests.conftest import numpy_calls

WEIGHTS = (0.7, 0.0, 1.3, 1.0)

coord = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def interleavings(draw):
    """``(e, weights, seed, steps)``: an antichain to start from, in any
    order, then steps that add one vector, carve a batch (several vectors,
    duplicates re-sampled in, the all-zero vector that carves to empty
    among the candidates) or move the set onto a grid."""
    e = draw(st.integers(1, 4))
    vector = st.tuples(*([coord] * e))
    weights = draw(st.sampled_from([None, WEIGHTS[:e]]))
    seed = draw(st.one_of(
        st.just([kernels.ones(e)]),
        st.lists(vector, max_size=6).map(skyline).flatmap(st.permutations),
    ))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["add", "add", "carve", "carve", "coarsen"]))
        if kind == "add":
            steps.append(("add", draw(vector)))
        elif kind == "coarsen":
            steps.append(("coarsen", draw(st.sampled_from([1, 2, 4, 8]))))
        else:
            batch = draw(st.lists(st.one_of(vector, st.just((0.0,) * e)),
                                  min_size=1, max_size=4))
            if draw(st.booleans()):
                batch += draw(st.lists(st.sampled_from(batch), max_size=2))
            steps.append(("carve", batch))
    return e, weights, seed, steps


def oracle_step(rows, kind, payload):
    """The loop oracles, in the patch's row order."""
    if kind == "add":
        return skyline(rows + [payload])
    if kind == "coarsen":
        return skyline(round_up(p, payload) for p in rows)
    for y in payload:
        carved = update_cover(rows, [y], skyline_result=True)
        survivors = [p for p in rows if not dominates(p, y)]
        rows = survivors + sorted(set(carved) - set(survivors))
    return rows


def weights_for(weights, e=2):
    """A scored set's weights: ``WeightedSum(weights)``'s, or the plain
    sum's for ``None``."""
    scoring = SumScore() if weights is None else WeightedSum(weights)
    return scoring.row_weights(0, e)


class SeededCover(CoverRegion):
    """A cover that starts from any antichain: ``add``, ``carve`` and
    ``coarsen`` on one object."""

    __slots__ = ()

    def __init__(self, seed, e, weights):
        super().__init__(e, skyline_mode=True, weights=weights)
        ScoredAntichain.__init__(self, seed, weights=weights, dimension=e)


class TestAgainstLoopOracles:
    @given(interleavings())
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_add_and_carve(self, case):
        e, weights, seed, steps = case
        scored = weights_for(weights, e)
        chain = SeededCover(seed, e, scored)

        def check(expected, *step):
            if e == 2:
                # The staircase: the oracle's set, in the one order a
                # 2-D antichain can be strictly monotone on both axes.
                assert chain.points == sorted(expected), step
                firsts, seconds = zip(*chain.points) if expected else ((), ())
                assert all(a < b for a, b in zip(firsts, firsts[1:]))
                assert all(a > b for a, b in zip(seconds, seconds[1:]))
            else:
                assert chain.points == expected, step  # row for row
            assert chain.partials == [partial(p, scored) for p in chain.points]
            assert chain.partials == [
                float(v)
                for v in kernels.cover_corner_scores(chain.points, weights)
            ]
            assert chain.best == max(chain.partials, default=NEG_INF)
            assert len(chain) == len(expected)
            assert is_skyline(expected)

        expected = list(seed)
        check(expected, "seed")
        for kind, payload in steps:
            expected = oracle_step(expected, kind, payload)
            getattr(chain, kind)(payload)
            check(expected, kind, payload)

    def test_no_mutation_reaches_a_two_form_op(self):
        def mutations():
            for e in (1, 2, 3):
                for weights in (None, WEIGHTS[:e]):
                    chain = SeededCover(
                        [kernels.ones(e)], e, weights_for(weights, e))
                    chain.add((0.5,) * e)
                    chain.carve([(0.25,) * e, (0.5,) * (e - 1) + (0.0,)])
                    chain.coarsen(4)

        assert numpy_calls(mutations) == 0

    def test_carve_to_empty(self):
        chain = ScoredAntichain([(1.0, 1.0)], weights=weights_for(None))
        chain.carve([(0.0, 0.0)])
        assert chain.points == [] and chain.partials == []
        assert chain.best == NEG_INF
        chain.carve([(0.5, 0.5)])  # nothing left to carve
        assert chain.points == []
        assert chain.add((0.2, 0.3)) and chain.best == 0.2 + 0.3

    def test_zero_coordinate_projection_dropped(self):
        chain = ScoredAntichain([(1.0, 1.0)], weights=weights_for(None))
        chain.carve([(0.0, 0.5)])
        assert chain.points == [(1.0, 0.5)] and chain.best == 1.5

    def test_unscored_chain_keeps_points_only(self):
        assert MinScore().row_weights(0, 2) is None
        chain = ScoredAntichain([(1.0, 1.0)])
        chain.carve([(0.5, 0.5)])
        assert chain.add((0.2, 0.2)) is False  # inside the cover
        assert chain.points == [(0.5, 1.0), (1.0, 0.5)]
        assert chain.partials is None and chain.best is None


class TestCarveAppliesAPatch:
    """What ``PointSet.patch`` guaranteed, at the patch's new home."""

    def test_keeps_ascending_then_adds_fresh_in_one_mutation(self):
        rows = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
        chain = ScoredAntichain(rows, weights=weights_for(None))
        chain.carve([(0.4, 0.4)])
        # At e=2 the fresh rows go where the carved run was ...
        assert chain.points == [(0.1, 0.9), (0.4, 0.5), (0.5, 0.4), (0.9, 0.1)]
        assert chain.partials == [0.1 + 0.9, 0.4 + 0.5, 0.5 + 0.4, 0.9 + 0.1]
        # ... a set with no staircase keeps its rows, then appends.
        deep = ScoredAntichain(
            [p + (0.5,) for p in rows], weights=weights_for(None, 3))
        deep.carve([(0.4, 0.4, 0.25)])
        assert deep.points == [
            (0.1, 0.9, 0.5), (0.9, 0.1, 0.5),
            (0.4, 0.5, 0.5), (0.5, 0.4, 0.5), (0.5, 0.5, 0.25),
        ]

    def test_patch_lands_in_place_as_python_floats(self):
        start = [(i / 50, 1.0 - (i - 1) / 50) for i in range(1, 50)]
        chain = ScoredAntichain(start, weights=weights_for(None))
        chain.carve([(0.31, 0.31)])
        at = chain.points.index((0.31, 0.7))  # in place of the carved run
        assert chain.points[at - 1:at + 3] == [
            start[14], (0.31, 0.7), (0.7, 0.31), start[35],
        ]
        assert {type(v) for p in chain.points for v in p} == {float}
        assert {type(v) for v in chain.partials} == {float}
        assert chain.partials == [partial(p, weights_for(None)) for p in chain.points]
        chain.carve([(0.0, 0.0)])
        assert chain.points == [] and chain.partials == []

    def test_untouched_cover_changes_nothing(self):
        for rows in ([(0.2, 1.0), (1.0, 0.2)],
                     [(0.2, 1.0, 0.5), (1.0, 0.2, 0.5)]):
            weights = weights_for(None, len(rows[0]))
            chain = ScoredAntichain(rows, weights=weights)
            held, partials = chain._points, chain.partials
            chain.carve([(0.5,) * len(rows[0])])
            assert chain._points is held and chain.partials is partials
            assert held == rows and partials == [partial(p, weights) for p in rows]

    def test_kept_partials_are_carried_not_rescored(self, monkeypatch):
        scored = []

        def counting(row, weights):
            scored.append(row)
            return partial(row, weights)

        monkeypatch.setattr(antichain, "partial", counting)
        # Off the staircase the fresh rows, and only they, are scored ...
        chain = ScoredAntichain(
            [(0.1, 0.9, 0.5), (0.9, 0.1, 0.5)], weights=weights_for(None, 3))
        assert len(scored) == 2
        chain.carve([(0.05, 0.8, 0.25)])
        fresh = [(0.05, 0.9, 0.5), (0.1, 0.8, 0.5), (0.1, 0.9, 0.25)]
        assert scored[2:] == fresh
        assert chain.points == [(0.9, 0.1, 0.5)] + fresh
        chain.add((0.95, 0.15, 0.5))  # beats (0.9, 0.1, 0.5): one new row scored
        assert scored[5:] == [(0.95, 0.15, 0.5)]
        assert chain.partials == [partial(p, chain.weights) for p in chain.points]
        # ... and on it none is: a fresh partial is w0*u + w1*v straight
        # off the weights, the same bits.
        scored.clear()
        stairs = ScoredAntichain([(0.1, 0.9), (0.9, 0.1)], weights=weights_for(None))
        assert scored == [(0.1, 0.9), (0.9, 0.1)]
        stairs.carve([(0.05, 0.8)])
        stairs.add((0.95, 0.15))
        assert len(scored) == 2
        assert stairs.points == [(0.05, 0.9), (0.1, 0.8), (0.95, 0.15)]
        assert stairs.partials == [partial(p, stairs.weights) for p in stairs.points]


class TestTheStructuresOnTop:
    def test_cover_and_skyline_are_scored_antichains(self):
        weights = WeightedSum((0.5, 2.0)).row_weights(0, 2)
        cover = CoverRegion(2, skyline_mode=True, weights=weights)
        assert cover.best == 0.5 + 2.0
        cover.update([(0.5, 0.5)])
        assert cover.best == max(
            partial(p, weights) for p in cover.points) == 0.25 + 2.0
        seen = IncrementalSkyline(weights=weights, dimension=2)
        assert seen.best == NEG_INF
        seen.add((0.5, 0.5))
        seen.add((0.4, 0.4))
        assert seen.best == partial((0.5, 0.5), weights)
        assert seen.points == [(0.5, 0.5)]

    def test_row_weights_take_the_operand_offset(self):
        weighted = WeightedSum((0.5, 2.0, 3.0))
        assert weighted.row_weights(1, 2) == (2.0, 3.0)
        assert partial((1.0, 1.0), weighted.row_weights(1, 2)) == 2.0 + 3.0
        assert partial((1.0,), weighted.row_weights(0, 1)) == 0.5
        assert partial((0.25, 0.5), SumScore().row_weights(2, 2)) == 0.75

    def test_one_wording_for_a_dimension_mismatch(self):
        """Cover, skyline and ``PointSet`` say it the same way — and say
        ``3-d``, not ``(3,)-d``."""
        wording = "dimension mismatch: {} is 2-d, point is 3-d"
        vector = (0.5, 0.5, 0.5)
        cases = {
            "cover": lambda: CoverRegion(2).update([vector]),
            "skyline": lambda: IncrementalSkyline([(0.1, 0.2)]).add(vector),
            "PointSet": lambda: PointSet(2).append(vector),
        }
        for kind, offend in cases.items():
            with pytest.raises(ValueError) as raised:
                offend()
            assert str(raised.value) == wording.format(kind)
        with pytest.raises(ValueError, match="cover is 2-d, point is 3-d"):
            update_cover([(1.0, 1.0)], [vector])

    def test_a_collapsed_cover_still_refuses_the_wrong_dimension(self):
        """Resolution 1 carves nothing — after the same check as any cover."""
        cover = CoverRegion(2, skyline_mode=True, resolution=1)
        cover.update([(0.5, 0.5)])
        assert cover.points == [(1.0, 1.0)]
        with pytest.raises(ValueError) as raised:
            cover.update([(0.5, 0.5, 0.5)])
        assert str(raised.value) == "dimension mismatch: cover is 2-d, point is 3-d"

    def test_an_empty_skyline_knows_its_dimension(self):
        seen = IncrementalSkyline(dimension=2)
        with pytest.raises(ValueError) as raised:
            seen.add((0.5, 0.5, 0.5))
        assert str(raised.value) == "dimension mismatch: skyline is 2-d, point is 3-d"
        assert seen.points == []
        with pytest.raises(ValueError, match="needs its dimension"):
            IncrementalSkyline()


class TestSeedRows:
    def test_a_2d_seed_is_sorted_into_the_staircase(self):
        chain = ScoredAntichain(
            [(0.9, 0.1), (0.1, 0.9), (0.5, 0.5)], weights=weights_for(None)
        )
        assert chain.points == [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
        assert chain.partials == [0.1 + 0.9, 0.5 + 0.5, 0.9 + 0.1]

    @pytest.mark.parametrize("seed", [
        [(0.5, 0.5), (0.4, 0.4)],   # one strictly under the other
        [(0.5, 0.5), (0.5, 0.4)],   # tied on an axis
        [(0.5, 0.5), (0.5, 0.5)],   # a duplicate
    ])
    def test_a_comparable_2d_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match="comparable: not an antichain"):
            ScoredAntichain(seed)

    def test_a_seed_row_of_the_wrong_dimension_is_refused(self):
        with pytest.raises(ValueError) as raised:
            ScoredAntichain([(0.5, 0.5, 0.5)], dimension=2)
        assert str(raised.value) == (
            "dimension mismatch: antichain is 2-d, point is 3-d"
        )
