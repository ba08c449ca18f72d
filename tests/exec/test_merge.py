"""Merger unit tests: emit gate, tie ordering, termination bookkeeping."""

from repro.core.pbrj import result_identity
from repro.core.tuples import JoinResult, RankTuple
from repro.exec import GlobalTopKMerger
from repro.exec.worker import AdvanceOutcome

NEG_INF = float("-inf")


def make_result(key, score, left_scores=(0.5, 0.5), right_scores=(0.5, 0.5)):
    left = RankTuple(key=key, scores=tuple(left_scores), payload=None)
    right = RankTuple(key=key, scores=tuple(right_scores), payload=None)
    return JoinResult.combine((left, right), score)


def outcome(shard, results=(), frontier=NEG_INF, pulls=0, exhausted=False):
    return AdvanceOutcome(
        shard=shard, results=tuple(results), pulls=pulls,
        depths=(0, 0), frontier=frontier, exhausted=exhausted,
    )


class TestEmitGate:
    def test_holds_result_while_any_frontier_reaches_it(self):
        merger = GlobalTopKMerger([0, 1])
        merger.offer(outcome(0, [make_result(1, 0.8)], frontier=0.5))
        # Shard 1 could still produce a 0.9: the 0.8 must not be released.
        merger.offer(outcome(1, [], frontier=0.9))
        assert merger.pop_ready() is None
        assert merger.blocking_shards() == [1]

    def test_releases_once_all_frontiers_drop(self):
        merger = GlobalTopKMerger([0, 1])
        merger.offer(outcome(0, [make_result(1, 0.8)], frontier=0.5))
        merger.offer(outcome(1, [], frontier=0.9))
        merger.offer(outcome(1, [], frontier=0.7))
        released = merger.pop_ready()
        assert released is not None and released.score == 0.8

    def test_equal_frontier_blocks_release(self):
        # frontier == score means the shard may still TIE the candidate;
        # releasing now would fix the tie order before all members exist.
        merger = GlobalTopKMerger([0, 1])
        merger.offer(outcome(0, [make_result(1, 0.8)], frontier=0.5))
        merger.offer(outcome(1, [], frontier=0.8))
        assert merger.pop_ready() is None

    def test_exhausted_shard_stops_blocking(self):
        merger = GlobalTopKMerger([0, 1])
        merger.offer(outcome(0, [make_result(1, 0.8)], frontier=0.5))
        merger.offer(outcome(1, [], frontier=0.9, exhausted=True))
        assert merger.pop_ready().score == 0.8

    def test_decreasing_score_order_across_shards(self):
        merger = GlobalTopKMerger([0, 1])
        merger.offer(outcome(0, [make_result(1, 0.9), make_result(1, 0.3)],
                             exhausted=True))
        merger.offer(outcome(1, [make_result(2, 0.6)], exhausted=True))
        scores = []
        while (result := merger.pop_ready()) is not None:
            scores.append(result.score)
        assert scores == [0.9, 0.6, 0.3]
        assert merger.done()


class TestTieOrdering:
    def test_ties_release_in_canonical_identity_order(self):
        tie_a = make_result(7, 1.0, left_scores=(0.6, 0.4))
        tie_b = make_result(3, 1.0, left_scores=(0.5, 0.5))
        expected = sorted([tie_a, tie_b], key=result_identity)

        # Offer in both arrival orders; release order must be identical.
        for first, second in ((tie_a, tie_b), (tie_b, tie_a)):
            merger = GlobalTopKMerger([0, 1])
            merger.offer(outcome(0, [first], exhausted=True))
            merger.offer(outcome(1, [second], exhausted=True))
            released = [merger.pop_ready(), merger.pop_ready()]
            assert [result_identity(r) for r in released] \
                == [result_identity(r) for r in expected]


class TestBookkeeping:
    def test_threshold_is_max_live_frontier(self):
        merger = GlobalTopKMerger([0, 1, 2])
        merger.offer(outcome(0, [], frontier=0.4))
        merger.offer(outcome(1, [], frontier=0.9))
        merger.offer(outcome(2, [], frontier=0.6, exhausted=True))
        assert merger.threshold == 0.9
        assert merger.live_shards == [0, 1]

    def test_blocking_defaults_to_all_live_without_candidates(self):
        merger = GlobalTopKMerger([0, 1])
        assert merger.blocking_shards() == [0, 1]

    def test_done_requires_drained_shards_and_empty_heap(self):
        merger = GlobalTopKMerger([0])
        assert not merger.done()
        merger.offer(outcome(0, [make_result(1, 0.5)], exhausted=True))
        assert not merger.done()
        assert merger.pop_ready().score == 0.5
        assert merger.done()

    def test_snapshot_counts(self):
        merger = GlobalTopKMerger([0])
        merger.offer(outcome(0, [make_result(1, 0.5)], exhausted=True))
        merger.pop_ready()
        snap = merger.snapshot()
        assert snap["offered"] == 1 and snap["released"] == 1
        assert snap["live_shards"] == [] and snap["pending_candidates"] == 0
