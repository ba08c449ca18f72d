"""Failure injection: operators must fail loudly and cleanly, never wrongly."""

import pytest

from repro.core.bounds import CornerBound, BoundContext, LEFT
from repro.core.frstar_bound import FRStarBound
from repro.core.operators import frpa, hrjn_star, make_operator
from repro.core.pbrj import PBRJ
from repro.core.pulling import RoundRobin
from repro.core.scoring import SumScore
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.errors import BudgetExhausted, NotSortedError
from repro.relation.sources import SortedScan, StreamSource, TupleSource, VerifyingSource
from repro.service.session import QuerySession, SessionState


class ExplodingSource(TupleSource):
    """Delivers ``good`` tuples, then raises."""

    def __init__(self, tuples, explode_after):
        super().__init__(tuples[0].dimension if tuples else 0)
        self._tuples = tuples
        self._served = 0
        self._explode_after = explode_after

    def has_next(self):
        return self._served < len(self._tuples)

    def _advance(self):
        if self._served >= self._explode_after:
            raise IOError("disk on fire")
        tup = self._tuples[self._served]
        self._served += 1
        return tup


def sorted_rows(pairs):
    rows = [RankTuple(key=k, scores=(s,)) for k, s in pairs]
    return sorted(rows, key=lambda t: t.scores[0], reverse=True)


class TestSourceFailures:
    def test_io_error_propagates(self):
        left = ExplodingSource(sorted_rows([(i, 1 - i / 10) for i in range(8)]), 2)
        right = SortedScan(sorted_rows([(i, 1 - i / 10) for i in range(8)]))
        operator = PBRJ((left, right), SumScore(), CornerBound(), RoundRobin())
        with pytest.raises(IOError):
            operator.top_k(8)

    def test_partial_state_remains_inspectable(self):
        left = ExplodingSource(sorted_rows([(i, 1 - i / 10) for i in range(8)]), 2)
        right = SortedScan(sorted_rows([(i, 1 - i / 10) for i in range(8)]))
        operator = PBRJ((left, right), SumScore(), CornerBound(), RoundRobin())
        with pytest.raises(IOError):
            operator.top_k(8)
        # Depth counters reflect the accesses attempted (the failing access
        # was charged before it raised — like a failed disk read).
        assert operator.depths()[0] == 3
        assert operator.pulls >= 2

    def test_unsorted_stream_detected_by_verifier(self):
        bad = [RankTuple(key=0, scores=(0.3,)), RankTuple(key=1, scores=(0.9,))]
        left = VerifyingSource(
            StreamSource(iter(bad), dimension=1),
            score_bound=lambda t: t.scores[0] + 1,
        )
        right = SortedScan(sorted_rows([(0, 0.5), (1, 0.4)]))
        operator = PBRJ((left, right), SumScore(), CornerBound(), RoundRobin())
        with pytest.raises(NotSortedError):
            operator.top_k(5)


class TestBudgetFailures:
    @pytest.fixture
    def instance(self):
        return random_instance(
            n_left=400, n_right=400, e_left=1, e_right=1,
            num_keys=1000, k=1, cut=1.0, seed=0,
        )

    def test_pull_budget_raises_not_wrong_answer(self, instance):
        # A spent session budget ends in the partial answer it proved (here
        # none), and only a caller demanding the full top-K gets an error.
        session = QuerySession("s1", hrjn_star(instance), 1, max_pulls=5)
        session.run_to_completion()
        assert session.budget_exhausted and session.pulls == 5
        assert session.answer() == []
        with pytest.raises(BudgetExhausted) as excinfo:
            session.answer(strict=True)
        assert excinfo.value.budget == 5

    def test_time_budget_raises(self, instance):
        # A spent time budget ends the session DONE with the prefix it
        # proved (here none): neither an error nor a wrong answer.
        session = QuerySession("s1", frpa(instance), 1, deadline=0.0)
        assert session.check_deadline()
        assert session.state is SessionState.DONE
        assert session.deadline_exceeded and not session.budget_exhausted
        assert session.pulls == 0
        assert session.answer(strict=True) == []

    def test_budget_not_triggered_when_cheap(self, instance):
        for operator in (hrjn_star(instance), frpa(instance)):
            result = operator.try_next(max_pulls=10_000)
            assert result is not PENDING
            assert result.score == operator.top_k(1)[0].score


class TestMisuse:
    def test_bound_update_requires_bind(self):
        bound = FRStarBound()
        with pytest.raises(AssertionError):
            bound.update(LEFT, RankTuple(key=0, scores=(0.5, 0.5)))

    def test_unknown_operator_name(self):
        instance = random_instance(
            n_left=10, n_right=10, e_left=1, e_right=1,
            num_keys=2, k=1, seed=0,
        )
        with pytest.raises(KeyError):
            make_operator("NOPE", instance)

    def test_mismatched_bound_dimensions_fail_fast(self):
        bound = CornerBound()
        bound.bind(BoundContext(SumScore(), (2, 2)))
        # A 1-d tuple on a 2-d side: the scoring function receives a
        # 3-coordinate vector where SumScore is lenient, so assert only
        # that richer scorers reject it.
        from repro.core.scoring import WeightedSum

        strict = CornerBound()
        strict.bind(BoundContext(WeightedSum([0.5, 0.5, 0.5, 0.5]), (2, 2)))
        with pytest.raises(ValueError):
            strict.update(LEFT, RankTuple(key=0, scores=(0.5,)))
