"""Tests for the FR* bound — equivalence to FR and Table-1 caching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import LEFT, RIGHT, BoundContext
from repro.core.fr_bound import FRBound
from repro.core.frstar_bound import FRStarBound
from repro.core.scoring import MinScore, SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.geometry.antichain import partial

unit = st.floats(0, 1, allow_nan=False)


def replay(bound_cls_or_instance, sequence, scoring, dims):
    """Feed (side, scores) pairs; return the list of bound values."""
    bound = (
        bound_cls_or_instance()
        if isinstance(bound_cls_or_instance, type)
        else bound_cls_or_instance
    )
    bound.bind(BoundContext(scoring, dims))
    values = []
    for side, scores in sequence:
        values.append(bound.update(side, RankTuple(key=0, scores=scores)))
    return values, bound


def interleave(left, right):
    """Round-robin (side, scores) sequence respecting per-side sort order."""
    left = sorted(left, key=sum, reverse=True)
    right = sorted(right, key=sum, reverse=True)
    sequence = []
    for i in range(max(len(left), len(right))):
        if i < len(left):
            sequence.append((LEFT, tuple(left[i])))
        if i < len(right):
            sequence.append((RIGHT, tuple(right[i])))
    return sequence


class TestEquivalenceToFR:
    """Theorem 4.1: FR* returns exactly the FR bound values."""

    @given(
        st.lists(st.tuples(unit, unit), min_size=1, max_size=12),
        st.lists(st.tuples(unit, unit), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_values_sum_2d(self, left, right):
        sequence = interleave(left, right)
        fr_values, __ = replay(FRBound, sequence, SumScore(), (2, 2))
        star_values, __ = replay(FRStarBound, sequence, SumScore(), (2, 2))
        assert fr_values == pytest.approx(star_values, abs=1e-12)

    @given(
        st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=8),
        st.lists(st.tuples(unit,), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_values_asymmetric_dims(self, left, right):
        scoring = SumScore()
        dims = (3, 1)
        left = sorted(left, key=sum, reverse=True)
        right = sorted(right, key=sum, reverse=True)
        sequence = []
        for i in range(max(len(left), len(right))):
            if i < len(left):
                sequence.append((LEFT, tuple(left[i])))
            if i < len(right):
                sequence.append((RIGHT, tuple(right[i])))
        fr_values, __ = replay(FRBound, sequence, scoring, dims)
        star_values, __ = replay(FRStarBound, sequence, scoring, dims)
        assert fr_values == pytest.approx(star_values, abs=1e-12)

    @given(
        st.lists(st.tuples(unit, unit), min_size=1, max_size=8),
        st.lists(st.tuples(unit, unit), min_size=1, max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_values_min_score(self, left, right):
        scoring = MinScore()
        left = sorted(left, key=min, reverse=True)
        right = sorted(right, key=min, reverse=True)
        sequence = []
        for i in range(max(len(left), len(right))):
            if i < len(left):
                sequence.append((LEFT, tuple(left[i])))
            if i < len(right):
                sequence.append((RIGHT, tuple(right[i])))
        fr_values, __ = replay(FRBound, sequence, scoring, (2, 2))
        star_values, __ = replay(FRStarBound, sequence, scoring, (2, 2))
        assert fr_values == pytest.approx(star_values, abs=1e-12)

    def test_exhaustion_equivalence(self):
        scoring = SumScore()
        sequence = interleave([(0.9, 0.1), (0.5, 0.5)], [(0.8, 0.8)])
        __, fr = replay(FRBound, sequence, scoring, (2, 2))
        __, star = replay(FRStarBound, sequence, scoring, (2, 2))
        assert fr.notify_exhausted(RIGHT) == pytest.approx(
            star.notify_exhausted(RIGHT), abs=1e-12
        )
        assert fr.notify_exhausted(LEFT) == pytest.approx(
            star.notify_exhausted(LEFT), abs=1e-12
        )


class TestDecisionMatrix:
    """Table 1: FR* recomputes far fewer cover bounds than FR."""

    def test_fewer_recomputations_than_fr(self):
        import numpy as np

        rng = np.random.default_rng(0)
        left = [tuple(v) for v in rng.random((40, 2))]
        right = [tuple(v) for v in rng.random((40, 2))]
        sequence = interleave(left, right)
        __, fr = replay(FRBound, sequence, SumScore(), (2, 2))
        __, star = replay(FRStarBound, sequence, SumScore(), (2, 2))
        assert star.cover_recomputations < fr.cover_recomputations

    def test_no_recompute_for_dominated_same_group_tuple(self):
        scoring = SumScore()
        bound = FRStarBound()
        bound.bind(BoundContext(scoring, (2, 2)))
        bound.update(LEFT, RankTuple(key=0, scores=(0.5, 0.5)))
        before = bound.cover_recomputations
        # Same S̄ (same group) and dominated by (0.5, 0.5)?  No: (0.6, 0.4)
        # is incomparable.  Use a dominated same-sum tuple: impossible for
        # sums — instead check a dominated tuple in a *new* group triggers
        # only the CR-side recomputes (2), not the SHR-side one.
        bound.update(LEFT, RankTuple(key=0, scores=(0.4, 0.4)))
        after = bound.cover_recomputations
        assert after - before == 2  # t_left^cover and t_both^cover only

    def test_skyline_change_triggers_other_side_recompute(self):
        scoring = SumScore()
        bound = FRStarBound()
        bound.bind(BoundContext(scoring, (2, 2)))
        bound.update(LEFT, RankTuple(key=0, scores=(0.9, 0.1)))
        before = bound.cover_recomputations
        # New skyline point AND new group: all three cover bounds refresh.
        bound.update(LEFT, RankTuple(key=0, scores=(0.1, 0.8)))
        assert bound.cover_recomputations - before == 3

    def test_seen_skyline_sizes_exposed(self):
        bound = FRStarBound()
        bound.bind(BoundContext(SumScore(), (2, 2)))
        bound.update(LEFT, RankTuple(key=0, scores=(0.9, 0.9)))
        bound.update(LEFT, RankTuple(key=0, scores=(0.5, 0.5)))
        assert bound.seen_skyline_sizes == (1, 0)


class TestRefreshIsADelta:
    """A regression to recompute-everything — or to arrays and dispatched
    glue on the pull path — fails here, not in a benchmark."""

    @staticmethod
    def _kernel_calls(operator_name):
        from repro import kernels
        from repro.core.operators import make_operator
        from repro.data.workload import WorkloadParams, lineitem_orders_instance
        from repro.obs.metrics import MetricRegistry

        # The cold_fr2 generator settings (benchmarks/harness/workloads.py).
        instance = lineitem_orders_instance(WorkloadParams(
            e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0
        ))
        operator = make_operator(operator_name, instance)
        registry = MetricRegistry()
        kernels.observe(registry)
        try:
            operator.top_k(10)
        finally:
            kernels.unobserve()
        calls = {}
        for _, labels, counter in registry.metrics_named("kernel_calls_total"):
            calls[labels["fn"]] = calls.get(labels["fn"], 0) + counter.value
        return instance, operator, calls

    def test_frpa_patches_instead_of_recomputing(self):
        instance, operator, calls = self._kernel_calls("FRPA")
        # Additive S: cover bounds come from maintained maxima.
        assert calls.get("cross_product_max", 0) == 0
        # One carve per closed group at most: a group closes when the
        # pulled tuple's score bound drops strictly below its side's last.
        context = BoundContext(instance.scoring, instance.dims)
        depths = operator.depths()
        closed = 0
        for side, depth in zip((LEFT, RIGHT), depths):
            bounds = [
                context.score_bound(side, t.scores)
                for t in instance.sorted_tuples(side)[:depth]
            ]
            closed += sum(b < a for a, b in zip(bounds, bounds[1:]))
        assert 0 < calls["cover_carve"] <= closed
        assert operator.stats().bound_recomputations > 0
        # ... and the carve is the only kernel a pull dispatches: the skyline
        # insert, the partial scores and the maxima are plain loops over lists.
        assert sum(calls.values()) == calls["cover_carve"]

    def test_hrjn_star_dispatches_nothing(self):
        _, operator, calls = self._kernel_calls("HRJN*")
        assert operator.pulls > 0 and calls == {}

    @pytest.mark.parametrize("operator_name", ["FRPA", "HRJN*"])
    def test_no_operator_keeps_score_columns(self, operator_name, monkeypatch):
        """Only plain FR reads seen columns, and it keeps its own."""
        from repro.kernels import PointSet

        appended = []
        real = PointSet.append
        monkeypatch.setattr(
            PointSet, "append",
            lambda self, point: appended.append(point) or real(self, point),
        )
        _, operator, _ = self._kernel_calls(operator_name)
        assert operator.pulls > 0 and appended == []
        assert not hasattr(operator, "score_columns")
        assert operator.bound_scheme.context.columns is None


class TestAPullPaysForOneStep:
    """A regression to call layers on the FR* pull path fails here.

    Each pull is one call, the shared side step — a seen-skyline insert
    and, on a group close, one carve, both straight on the side's staircase
    lists, with no scorer call — so the walk makes a fixed, small number of
    Python calls per pull (2.26 / 1.99: the step, then the join, emission
    and bookkeeping a query pays per ``try_next``).  The count is
    deterministic: this cannot flake on timing."""

    @pytest.mark.parametrize("shape, name", [
        ("cold_fr2", "FRPA"), ("cold_frwide", "a-FRPA"),
    ])
    def test_python_calls_per_pull(self, shape, name):
        import sys

        from repro.core.operators import make_operator
        from test_bound_trace_golden import HARNESS_INSTANCES  # same directory

        operator = make_operator(name, HARNESS_INSTANCES[shape]())
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            results = operator.top_k(10)
        finally:
            sys.setprofile(None)
        assert len(results) == 10 and operator.pulls > 500
        assert calls <= 3 * operator.pulls


#: Duplicates, shared coordinates on either axis, and 0 / 1 coordinates.
step_coordinate = st.sampled_from(
    [0.0, 1.0, 0.25, 0.5, 0.75, 0.3, 0.6, 0.5 + 1e-12, 1 / 3])


@st.composite
def side_steps(draw):
    """Pulls ``("pull", side, vector, closes)`` with one move onto a grid of 2 to 64
    cells per axis somewhere in the stream, on one side."""
    vector = st.tuples(step_coordinate, step_coordinate)
    pulls = draw(st.lists(st.tuples(st.just("pull"), st.integers(0, 1), vector,
                                    st.booleans()), min_size=1, max_size=40))
    at = draw(st.integers(0, len(pulls)))
    grid = ("coarsen", draw(st.integers(0, 1)), 2 ** draw(st.integers(1, 6)))
    return pulls[:at] + [grid] + pulls[at:]


#: Every additive scoring: the step's ``w0*u + w1*v`` must be each one's
#: ``partial`` over its row weights, bit for bit — a zero weight included.
step_scorings = st.sampled_from([
    SumScore(),
    WeightedSum([0.0, 1.3, 0.7, 0.0]),
    WeightedSum([0.7, 1.3, 1.0, 1.0 + 1e-6]),
])


class TestTheSharedStep:
    """``FRStarBound._step`` — the loop's ``update`` and, at e=2, the
    walk make the same ``staircase_step`` call — against the literal
    oracles: the brute-force skyline of every vector inserted, and
    ``update_cover(..., skyline_result=True)`` over each closed group
    (rounded up onto the cover's grid once it has one).  Every partial the
    step inserts or carves in is ``partial``'s, bit for bit."""

    @given(side_steps(), step_scorings)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_the_step_equals_the_oracles(self, steps, scoring):
        from repro.core.afr_bound import AFRBound
        from repro.core.scoring import NEG_INF
        from repro.geometry.cover import round_up, update_cover

        bound = AFRBound(max_cr_size=10**6)  # a grid only where it is moved onto one
        bound.bind(BoundContext(scoring, (2, 2)))
        weights = [scoring.row_weights(0, 2), scoring.row_weights(2, 2)]
        inserted, covers, groups = [[], []], [[(1.0, 1.0)], [(1.0, 1.0)]], [[], []]
        grids = [None, None]

        def brute_skyline(points):
            return sorted({p for p in points
                           if not any(q != p and q[0] >= p[0] and q[1] >= p[1]
                                      for q in points)})

        for kind, side, payload, *closes in steps:
            if kind == "coarsen":
                bound._cr[side].coarsen(payload)
                grids[side] = payload
                covers[side] = brute_skyline([round_up(p, payload) for p in covers[side]])
                continue
            group = None
            if closes[0]:
                group, groups[side] = groups[side], [payload]
            else:
                groups[side].append(payload)
            moved = bound._step(side, payload, group)
            before = brute_skyline(inserted[side])
            inserted[side].append(payload)
            assert moved == (brute_skyline(inserted[side]) != before)
            if group is not None:
                if grids[side] is not None:
                    group = [round_up(y, grids[side]) for y in group]
                covers[side] = sorted(update_cover(covers[side], group,
                                                   skyline_result=True))
            for chain, expected in (
                (bound._seen[side], brute_skyline(inserted[side])),
                (bound._cr[side], covers[side]),
            ):
                points = chain.points
                assert points == expected  # the staircase order
                assert all(p[0] < q[0] and p[1] > q[1] for p, q in zip(points, points[1:]))
                assert [v.hex() for v in chain.partials] == [
                    partial(p, weights[side]).hex() for p in points]
                assert chain.best == max(chain.partials, default=NEG_INF)
        assert bound.cover_sizes == tuple(map(len, covers))
        assert bound.seen_skyline_sizes == tuple(len(brute_skyline(s)) for s in inserted)
        assert bound.cover_resolutions == tuple(grids)
