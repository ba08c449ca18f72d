"""Unit tests for the tuple model."""

from repro.core.tuples import JoinResult, RankTuple


class TestRankTuple:
    def test_scores_normalized_to_tuple(self):
        tup = RankTuple(key=1, scores=[0.5, 0.25])
        assert tup.scores == (0.5, 0.25)
        assert isinstance(tup.scores, tuple)

    def test_dimension(self):
        assert RankTuple(key=1, scores=(0.5,)).dimension == 1
        assert RankTuple(key=1, scores=()).dimension == 0

    def test_hashable_and_equal(self):
        a = RankTuple(key=1, scores=(0.5,))
        b = RankTuple(key=1, scores=(0.5,))
        assert a == b
        assert hash(a) == hash(b)

    def test_payload_default_none(self):
        assert RankTuple(key="x", scores=(1.0,)).payload is None


class TestJoinResult:
    def test_combine_concatenates_scores(self):
        left = RankTuple(key=1, scores=(0.2, 0.3))
        right = RankTuple(key=1, scores=(0.9,))
        result = JoinResult.combine((left, right), score=1.4)
        assert result.scores == (0.2, 0.3, 0.9)
        assert result.score == 1.4
        assert result.key == 1

    def test_merged_payload_combines_dicts(self):
        left = RankTuple(key=1, scores=(0.2,), payload={"orderkey": 1, "partkey": 7})
        right = RankTuple(key=1, scores=(0.9,), payload={"custkey": 3})
        result = JoinResult.combine((left, right), score=1.1)
        assert result.merged_payload() == {"orderkey": 1, "partkey": 7, "custkey": 3}

    def test_merged_payload_ignores_non_dicts(self):
        left = RankTuple(key=1, scores=(0.2,), payload="opaque")
        right = RankTuple(key=1, scores=(0.9,), payload={"custkey": 3})
        result = JoinResult.combine((left, right), score=1.1)
        assert result.merged_payload() == {"custkey": 3}

    def test_right_payload_wins_on_collision(self):
        left = RankTuple(key=1, scores=(0.2,), payload={"k": 1})
        right = RankTuple(key=1, scores=(0.9,), payload={"k": 2})
        assert JoinResult.combine((left, right), 1.1).merged_payload() == {"k": 2}
