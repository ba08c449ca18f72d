"""Unit tests for the PBRJ operator template."""

import pytest

from repro.core.bounds import CornerBound
from repro.core.frstar_bound import FRStarBound
from repro.core.naive import naive_top_k, top_scores
from repro.core.pbrj import PBRJ
from repro.core.pulling import PotentialAdaptive, RoundRobin
from repro.core.scoring import SumScore
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.relation.sources import SortedScan


def rows(pairs, dims=1):
    """Build tuples from (key, score...) pairs, sorted by score sum desc."""
    tuples = [RankTuple(key=k, scores=tuple(s)) for k, s in pairs]
    return sorted(tuples, key=lambda t: sum(t.scores), reverse=True)


def operator(left_pairs, right_pairs, bound=None, strategy=None, **kwargs):
    left = SortedScan(rows(left_pairs))
    right = SortedScan(rows(right_pairs))
    return PBRJ(
        (left, right),
        SumScore(),
        bound or CornerBound(),
        strategy or RoundRobin(),
        **kwargs,
    )


LEFT_PAIRS = [(1, (0.9,)), (2, (0.8,)), (1, (0.3,)), (3, (0.2,))]
RIGHT_PAIRS = [(2, (1.0,)), (1, (0.7,)), (3, (0.6,)), (1, (0.1,))]


class TestGetNext:
    def test_results_in_decreasing_score_order(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS)
        scores = [r.score for r in op]
        assert scores == sorted(scores, reverse=True)

    def test_matches_naive_oracle(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS)
        got = top_scores(list(op))
        expected = top_scores(
            naive_top_k(rows(LEFT_PAIRS), rows(RIGHT_PAIRS), SumScore(), 100)
        )
        assert got == pytest.approx(expected)

    def test_returns_none_after_exhaustion(self):
        op = operator([(1, (0.9,))], [(1, (0.5,))])
        assert op.get_next() is not None
        assert op.get_next() is None
        assert op.get_next() is None

    def test_empty_join(self):
        op = operator([(1, (0.9,))], [(2, (0.5,))])
        assert op.get_next() is None

    def test_empty_inputs(self):
        op = operator([], [])
        assert op.get_next() is None

    def test_top_k_truncates(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS)
        assert len(op.top_k(2)) == 2

    def test_top_k_short_output(self):
        op = operator([(1, (0.9,))], [(1, (0.5,))])
        assert len(op.top_k(10)) == 1

    def test_duplicate_keys_produce_all_combinations(self):
        left = [(1, (0.9,)), (1, (0.8,))]
        right = [(1, (0.7,)), (1, (0.6,))]
        op = operator(left, right)
        assert len(list(op)) == 4


class TestEarlyTermination:
    def test_does_not_scan_everything_for_k1(self):
        left = [(i, (1.0 - i / 100,)) for i in range(100)]
        right = [(i, (1.0 - i / 100,)) for i in range(100)]
        op = operator(left, right)
        first = op.get_next()
        assert first is not None
        assert first.score == pytest.approx(2.0)  # key 0 joins key 0
        assert op.depths().sum_depths < 50

    def test_adaptive_strategy_can_beat_round_robin(self):
        # Left input's scores plummet: adaptive pulling should hammer the
        # right input less than RR hammers both.
        left = [(i, (1.0 if i == 0 else 0.01,)) for i in range(50)]
        right = [(i, (1.0 - i / 1000,)) for i in range(50)]
        rr = operator(left, right, bound=CornerBound(), strategy=RoundRobin())
        ad = operator(
            left, right, bound=CornerBound(), strategy=PotentialAdaptive()
        )
        rr.top_k(1)
        ad.top_k(1)
        assert ad.depths().sum_depths <= rr.depths().sum_depths


class TestAccounting:
    def test_depths_match_sources(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS)
        op.top_k(1)
        depths = op.depths()
        assert depths.left + depths.right == op.pulls

    def test_pull_budget_enforced(self):
        left = [(i, (1.0 - i / 100,)) for i in range(50)]
        right = [(i + 100, (1.0 - i / 100,)) for i in range(50)]  # no matches
        op = operator(left, right)
        assert op.try_next(max_pulls=10) is PENDING
        assert op.pulls == 10
        assert op.try_next(max_pulls=0) is PENDING and op.pulls == 10

    def test_stats_snapshot(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS, name="probe")
        op.top_k(2)
        stats = op.stats()
        assert stats.operator == "probe"
        assert stats.results == 2
        assert stats.depths.sum_depths == op.pulls
        assert stats.timing.total >= stats.timing.io
        assert stats.io_cost > 0

    def test_operator_name_used(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS)
        assert op.stats().operator == "PBRJ"


class TestWithFRStar:
    def test_frstar_operator_correct(self):
        op = operator(
            LEFT_PAIRS,
            RIGHT_PAIRS,
            bound=FRStarBound(),
            strategy=PotentialAdaptive(),
        )
        got = top_scores(list(op))
        expected = top_scores(
            naive_top_k(rows(LEFT_PAIRS), rows(RIGHT_PAIRS), SumScore(), 100)
        )
        assert got == pytest.approx(expected)

    def test_bound_value_exposed(self):
        op = operator(LEFT_PAIRS, RIGHT_PAIRS, bound=FRStarBound())
        op.get_next()
        assert op.bound_value < float("inf")
