"""Tests for relations and problem instances."""

import pickle

import numpy as np
import pytest

from repro.core.scoring import CallableScore, SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.errors import InstanceError, NotSortedError
from repro.relation import relation as relation_module
from repro.relation.relation import KEY_ATTR, RankJoinInstance, Relation
from repro.relation.sources import VerifyingSource


def simple_relation(name, rows):
    return Relation(name, [RankTuple(key=k, scores=s) for k, s in rows])


class TestRelation:
    def test_dimension_inferred(self):
        rel = simple_relation("R", [(1, (0.5, 0.5))])
        assert rel.dimension == 2

    def test_empty_relation(self):
        rel = Relation("R", [])
        assert len(rel) == 0
        assert rel.dimension == 0

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InstanceError):
            simple_relation("R", [(1, (0.5,)), (2, (0.5, 0.5))])

    def test_a_relation_refuses_every_edit(self):
        rows = [RankTuple(key=1, scores=(0.5,)), RankTuple(key=2, scores=(0.25,))]
        rel = Relation("R", rows)
        extra = RankTuple(key=3, scores=(1.0,))
        rows.append(extra)  # the caller's list is not the relation's rows
        assert type(rel.tuples) is tuple and len(rel) == 2
        with pytest.raises(AttributeError):
            rel.tuples.append(extra)
        with pytest.raises(TypeError):
            rel.tuples[0] = extra
        with pytest.raises(AttributeError):
            rel.tuples = [extra]
        assert rel.tuples == tuple(rows[:2])
        assert rel.scored()[0] is rel.tuples

    def test_a_pickled_relation_keeps_its_views_read_only(self, monkeypatch):
        """A fleet started by ``spawn`` or ``forkserver`` hands each worker
        its relations pickled.  The copy has the same fingerprint and codes
        without building either, and its score matrix is still read-only
        (at the parent a pickled matrix came back writeable)."""
        rel = Relation("R", [RankTuple(key=k, scores=(k / 4, 0.5), payload={"p": k})
                             for k in (3, 1, 3, 2)])
        fingerprint, (values, codes) = rel.fingerprint(), rel.key_codes((KEY_ATTR,))

        def rebuilt(*args):
            raise AssertionError("a pickled relation rebuilt a view")

        copy = pickle.loads(pickle.dumps(rel))
        monkeypatch.setattr(relation_module, "_tuple_digest", rebuilt)
        monkeypatch.setattr(relation_module, "encode_keys", rebuilt)
        rows, matrix = copy.scored()
        assert copy.fingerprint() == fingerprint
        copy_values, copy_codes = copy.key_codes((KEY_ATTR,))
        assert copy_values == values and np.array_equal(copy_codes, codes)
        assert rows is copy.tuples and rows == rel.tuples
        assert np.array_equal(matrix, rel.scored()[1])
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_from_arrays(self):
        rel = Relation.from_arrays(
            "R", [1, 2], np.array([[0.1, 0.2], [0.3, 0.4]]), payloads=["a", "b"]
        )
        assert rel.tuples[0].payload == "a"
        assert rel.tuples[1].scores == (0.3, 0.4)

    def test_from_arrays_validates_shapes(self):
        with pytest.raises(InstanceError):
            Relation.from_arrays("R", [1], np.array([0.1, 0.2]))
        with pytest.raises(InstanceError):
            Relation.from_arrays("R", [1], np.array([[0.1], [0.2]]))
        with pytest.raises(InstanceError):
            Relation.from_arrays("R", [1], np.array([[0.1]]), payloads=[1, 2])


class TestRankJoinInstance:
    def make(self, k=1, scoring=None, **kwargs):
        left = simple_relation("L", [(1, (0.1, 0.9)), (2, (0.9, 0.9)), (1, (0.5, 0.1))])
        right = simple_relation("R", [(1, (0.2,)), (2, (0.8,))])
        return RankJoinInstance(left, right, scoring or SumScore(), k, **kwargs)

    def test_dims(self):
        instance = self.make()
        assert instance.dims == (2, 1)

    def test_sorted_access_order(self):
        instance = self.make()
        for side in (0, 1):
            bounds = [
                instance.score_bound(side, t.scores)
                for t in instance.sorted_tuples(side)
            ]
            assert bounds == sorted(bounds, reverse=True)

    def test_scans_are_fresh(self):
        instance = self.make()
        scan1, __ = instance.scans()
        scan1.next()
        scan2, __ = instance.scans()
        assert scan2.depth == 0
        assert scan1.depth == 1

    def test_scans_pass_order_verification(self):
        instance = self.make()
        left, right = instance.scans()
        verified = VerifyingSource(
            left, score_bound=lambda t: instance.score_bound(0, t.scores)
        )
        while verified.next() is not None:
            pass  # NotSortedError would propagate

    def test_join_size(self):
        instance = self.make()
        assert instance.join_size() == 3  # two key-1 lefts x one + key-2 pair

    def test_validate_rejects_large_k(self):
        with pytest.raises(InstanceError):
            self.make(k=4, validate=True)

    def test_validate_accepts_feasible_k(self):
        self.make(k=3, validate=True)

    def test_k_must_be_positive(self):
        with pytest.raises(InstanceError):
            self.make(k=0)

    def test_a_non_monotone_callable_is_refused(self):
        scoring = CallableScore(lambda v: v[0] - v[2], name="left-minus-right")
        with pytest.raises(
            InstanceError,
            match=r"^scoring 'left-minus-right' is not monotone on \[0, 1\]\^3$",
        ):
            self.make(scoring=scoring)

    def test_a_monotone_callable_is_accepted(self):
        instance = self.make(scoring=CallableScore(lambda v: max(v) * min(v)))
        assert instance.dims == (2, 1)

    def test_weighted_scoring_changes_order(self):
        scoring = WeightedSum([1.0, 0.0, 0.0])  # only first left score counts
        instance = self.make(scoring=scoring)
        first = instance.sorted_tuples(0)[0]
        assert first.scores == (0.9, 0.9)

    def test_score_bound_substitutes_ones(self):
        instance = self.make()
        assert instance.score_bound(0, (0.5, 0.5)) == pytest.approx(2.0)
        assert instance.score_bound(1, (0.5,)) == pytest.approx(2.5)
