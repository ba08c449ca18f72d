"""The list-native scored antichain against the loop oracles.

:class:`ScoredAntichain` replaced columnar ``PointSet`` storage patched
through stamps under ``CoverRegion`` and ``IncrementalSkyline``.  The
oracles are the plain loops ``update_cover(skyline_result=True)`` (which
still skylines the full union) and ``skyline()``; on top of the point set
the property pins the *row order* the patch had — kept rows ascending, then
the fresh rows sorted per vector, so the tier-equivalence tests keep
comparing lists — and the carried scores: ``partials[i]`` is bitwise the row
scorer on ``points[i]`` (and the kernels' partial score of that row),
``best`` their maximum.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.scoring import NEG_INF, MinScore, SumScore, WeightedSum
from repro.geometry import CoverRegion, IncrementalSkyline, ScoredAntichain
from repro.geometry.cover import update_cover
from repro.geometry.dominance import dominates
from repro.geometry.skyline import is_skyline, skyline
from repro.kernels import PointSet, use_backend

TIERS = ("python", "numpy", "auto")
WEIGHTS = (0.7, 0.0, 1.3, 1.0)

coord = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def interleavings(draw):
    """``(e, weights, steps)``: each step adds one vector or carves a batch
    (several vectors, duplicates re-sampled in, the all-zero vector that
    carves to empty among the candidates)."""
    e = draw(st.integers(1, 4))
    vector = st.tuples(*([coord] * e))
    weights = draw(st.sampled_from([None, WEIGHTS[:e]]))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            steps.append(("add", draw(vector)))
            continue
        batch = draw(st.lists(st.one_of(vector, st.just((0.0,) * e)),
                              min_size=1, max_size=4))
        if draw(st.booleans()):
            batch += draw(st.lists(st.sampled_from(batch), max_size=2))
        steps.append(("carve", batch))
    return e, weights, steps


def oracle_step(rows, kind, payload):
    """The loop oracles, in the patch's row order."""
    if kind == "add":
        return skyline(rows + [payload])
    for y in payload:
        carved = update_cover(rows, [y], skyline_result=True)
        survivors = [p for p in rows if not dominates(p, y)]
        rows = survivors + sorted(set(carved) - set(survivors))
    return rows


def scorer_for(weights):
    scoring = SumScore() if weights is None else WeightedSum(weights)
    return scoring.row_scorer(0)


class TestAgainstLoopOracles:
    @given(interleavings())
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_add_and_carve(self, case):
        e, weights, steps = case
        score = scorer_for(weights)
        chains = {tier: ScoredAntichain([kernels.ones(e)], score=score)
                  for tier in TIERS}
        expected = [kernels.ones(e)]
        for kind, payload in steps:
            expected = oracle_step(expected, kind, payload)
            for tier, chain in chains.items():
                with use_backend(tier):
                    getattr(chain, kind)(payload)
                # Row for row, on every tier.
                assert chain.points == expected, (tier, kind, payload)
                assert chain.partials == [score(p) for p in chain.points]
                assert chain.partials == [
                    float(v)
                    for v in kernels.cover_corner_scores(chain.points, weights)
                ]
                assert chain.best == max(chain.partials, default=NEG_INF)
                assert len(chain) == len(expected)
            assert is_skyline(expected)

    def test_carve_to_empty(self):
        chain = ScoredAntichain([(1.0, 1.0)], score=scorer_for(None))
        chain.carve([(0.0, 0.0)])
        assert chain.points == [] and chain.partials == []
        assert chain.best == NEG_INF
        chain.carve([(0.5, 0.5)])  # nothing left to carve
        assert chain.points == []
        assert chain.add((0.2, 0.3)) and chain.best == 0.2 + 0.3

    def test_zero_coordinate_projection_dropped(self):
        chain = ScoredAntichain([(1.0, 1.0)], score=scorer_for(None))
        chain.carve([(0.0, 0.5)])
        assert chain.points == [(1.0, 0.5)] and chain.best == 1.5

    def test_unscored_chain_keeps_points_only(self):
        assert MinScore().row_scorer(0) is None
        chain = ScoredAntichain([(1.0, 1.0)])
        chain.carve([(0.5, 0.5)])
        assert chain.add((0.2, 0.2)) is False  # inside the cover
        assert chain.points == [(0.5, 1.0), (1.0, 0.5)]
        assert chain.partials is None and chain.best is None


class TestCarveAppliesAPatch:
    """What ``PointSet.patch`` guaranteed, at the patch's new home."""

    def test_keeps_ascending_then_adds_fresh_in_one_mutation(self):
        chain = ScoredAntichain(
            [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)], score=scorer_for(None)
        )
        chain.carve([(0.4, 0.4)])
        assert chain.points == [(0.1, 0.9), (0.9, 0.1), (0.4, 0.5), (0.5, 0.4)]
        assert chain.partials == [0.1 + 0.9, 0.9 + 0.1, 0.4 + 0.5, 0.5 + 0.4]

    def test_numpy_tier_patch_lands_as_python_tuples(self):
        start = [(i / 50, 1.0 - (i - 1) / 50) for i in range(1, 50)]
        chains = {}
        for tier in ("python", "numpy"):
            with use_backend(tier):
                chain = chains[tier] = ScoredAntichain(start, score=scorer_for(None))
                chain.carve([(0.31, 0.31)])
        chain = chains["numpy"]  # its kernel answered in arrays
        assert chain.points == chains["python"].points
        assert chain.points[-2:] == [(0.31, 0.7), (0.7, 0.31)]
        assert {type(v) for p in chain.points for v in p} == {float}
        assert {type(v) for v in chain.partials} == {float}
        assert chain.partials == chains["python"].partials
        with use_backend("numpy"):
            chain.carve([(0.0, 0.0)])
        assert chain.points == [] and chain.partials == []

    def test_untouched_cover_changes_nothing(self):
        chain = ScoredAntichain([(0.2, 1.0), (1.0, 0.2)], score=scorer_for(None))
        rows, partials = chain._points, chain.partials
        chain.carve([(0.5, 0.5)])
        assert chain._points is rows and chain.partials is partials

    def test_kept_partials_are_carried_not_rescored(self):
        scored = []
        plain = scorer_for(None)

        def counting(row):
            scored.append(row)
            return plain(row)

        chain = ScoredAntichain([(0.1, 0.9), (0.9, 0.1)], score=counting)
        assert len(scored) == 2
        chain.carve([(0.05, 0.8)])
        assert scored[2:] == [(0.05, 0.9), (0.1, 0.8)]  # the fresh rows only
        assert chain.points == [(0.9, 0.1), (0.05, 0.9), (0.1, 0.8)]
        chain.add((0.95, 0.15))  # beats (0.9, 0.1): one new row scored
        assert scored[4:] == [(0.95, 0.15)]
        assert chain.partials == [plain(p) for p in chain.points]


class TestTheStructuresOnTop:
    def test_cover_and_skyline_are_scored_antichains(self):
        score = WeightedSum((0.5, 2.0)).row_scorer(0)
        cover = CoverRegion(2, skyline_mode=True, score=score)
        assert cover.best == 0.5 + 2.0
        cover.update([(0.5, 0.5)])
        assert cover.best == max(score(p) for p in cover.points) == 0.25 + 2.0
        seen = IncrementalSkyline(score=score)
        assert seen.best == NEG_INF
        seen.add((0.5, 0.5))
        seen.add((0.4, 0.4))
        assert seen.best == score((0.5, 0.5)) and seen.frozen_since == 1

    def test_row_scorer_takes_the_operand_offset(self):
        weighted = WeightedSum((0.5, 2.0, 3.0))
        assert weighted.row_scorer(1)((1.0, 1.0)) == 2.0 + 3.0
        assert weighted.row_scorer(0)((1.0,)) == 0.5
        assert SumScore().row_scorer(2)((0.25, 0.5)) == 0.75

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
