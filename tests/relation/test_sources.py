"""Unit tests for tuple sources and cost accounting."""

import pytest

from repro.core.tuples import RankTuple
from repro.errors import NotSortedError
from repro.relation.cost import AccessStats, CostModel
from repro.relation.sources import SortedScan, StreamSource, VerifyingSource


def tuples_desc(n=5):
    return [RankTuple(key=i, scores=(1.0 - i / 10,)) for i in range(n)]


class TestCostModel:
    def test_charge_includes_seek_once(self):
        stats = AccessStats()
        model = CostModel(per_tuple=2.0, seek=10.0)
        stats.charge(model)
        stats.charge(model)
        assert stats.pulls == 2
        assert stats.cost == pytest.approx(14.0)

    def test_reset(self):
        stats = AccessStats()
        stats.charge(CostModel())
        stats.reset()
        assert stats.pulls == 0
        assert stats.cost == 0.0
        assert not stats.touched

    def test_presets_ordering(self):
        assert (
            CostModel.free().per_tuple
            < CostModel.clustered_index().per_tuple
            < CostModel.unclustered_index().per_tuple
            < CostModel.network_stream().per_tuple
        )


class TestSortedScan:
    def test_sequential_access(self):
        scan = SortedScan(tuples_desc(3))
        assert scan.has_next()
        assert scan.next().key == 0
        assert scan.next().key == 1
        assert scan.next().key == 2
        assert not scan.has_next()
        assert scan.next() is None

    def test_depth_counts_pulls(self):
        scan = SortedScan(tuples_desc(3))
        scan.next()
        scan.next()
        assert scan.depth == 2
        assert scan.remaining == 1
        assert len(scan) == 3

    def test_cost_accumulates(self):
        scan = SortedScan(tuples_desc(3), cost_model=CostModel(per_tuple=5, seek=1))
        scan.next()
        assert scan.cost == pytest.approx(6.0)

    def test_empty_scan(self):
        scan = SortedScan([])
        assert not scan.has_next()
        assert scan.next() is None
        assert scan.dimension == 0

    def test_dimension_from_tuples(self):
        scan = SortedScan([RankTuple(key=1, scores=(0.1, 0.2, 0.3))])
        assert scan.dimension == 3

    def test_iteration(self):
        scan = SortedScan(tuples_desc(4))
        assert [t.key for t in scan] == [0, 1, 2, 3]


class TestStreamSource:
    def test_wraps_generator(self):
        source = StreamSource(iter(tuples_desc(3)), dimension=1)
        assert source.has_next()
        assert source.next().key == 0
        assert [t.key for t in source] == [1, 2]
        assert not source.has_next()

    def test_single_lookahead_only(self):
        produced = []

        def gen():
            for t in tuples_desc(3):
                produced.append(t.key)
                yield t

        source = StreamSource(gen(), dimension=1)
        assert source.has_next()
        assert produced == [0]  # exactly one buffered
        source.next()
        assert produced == [0]

    def test_empty_stream(self):
        source = StreamSource(iter(()), dimension=1)
        assert not source.has_next()
        assert source.next() is None


class TestVerifyingSource:
    """The one way to check an input's order: as it is read."""

    def test_order_verification_accepts_sorted(self):
        verified = VerifyingSource(
            SortedScan(tuples_desc()), score_bound=lambda t: t.scores[0]
        )
        assert len(list(verified)) == 5

    def test_order_verification_rejects_unsorted(self):
        shuffled = list(reversed(tuples_desc()))
        verified = VerifyingSource(
            SortedScan(shuffled), score_bound=lambda t: t.scores[0]
        )
        with pytest.raises(NotSortedError):
            list(verified)

    def test_passes_through_sorted_stream(self):
        inner = SortedScan(tuples_desc(4))
        verified = VerifyingSource(inner, score_bound=lambda t: t.scores[0])
        assert [t.key for t in verified] == [0, 1, 2, 3]
        assert verified.depth == 4

    def test_raises_on_out_of_order(self):
        bad = [RankTuple(key=0, scores=(0.5,)), RankTuple(key=1, scores=(0.9,))]
        verified = VerifyingSource(
            SortedScan(bad), score_bound=lambda t: t.scores[0]
        )
        verified.next()
        with pytest.raises(NotSortedError):
            verified.next()

    def test_cost_delegates_to_inner(self):
        inner = SortedScan(tuples_desc(2), cost_model=CostModel(per_tuple=3))
        verified = VerifyingSource(inner, score_bound=lambda t: t.scores[0])
        verified.next()
        assert verified.cost == pytest.approx(3.0)
