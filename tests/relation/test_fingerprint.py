"""Relation.fingerprint(): stable order-insensitive content hashing."""

from repro.core.tuples import RankTuple
from repro.relation.relation import Relation
from repro.service import QuerySpec, scoring_fingerprint
from repro.core.scoring import SumScore, WeightedSum


def rows(spec):
    return [
        RankTuple(key=key, scores=scores, payload=payload)
        for key, scores, payload in spec
    ]


BASE = [
    (1, (0.9, 0.5), {"flag": "a"}),
    (2, (0.7, 0.3), {"flag": "b"}),
    (3, (0.1, 0.8), None),
]


class TestContentHash:
    def test_identical_content_hashes_equal(self):
        assert (
            Relation("r", rows(BASE)).fingerprint()
            == Relation("r", rows(BASE)).fingerprint()
        )

    def test_permuted_but_equal_hashes_equal(self):
        permuted = [BASE[2], BASE[0], BASE[1]]
        assert (
            Relation("r", rows(BASE)).fingerprint()
            == Relation("r", rows(permuted)).fingerprint()
        )

    def test_name_is_excluded(self):
        assert (
            Relation("lineitem", rows(BASE)).fingerprint()
            == Relation("copy-of-lineitem", rows(BASE)).fingerprint()
        )

    def test_differing_scores_hash_differently(self):
        changed = [(1, (0.9, 0.5000001), {"flag": "a"})] + BASE[1:]
        assert (
            Relation("r", rows(BASE)).fingerprint()
            != Relation("r", rows(changed)).fingerprint()
        )

    def test_differing_keys_hash_differently(self):
        changed = [(9, (0.9, 0.5), {"flag": "a"})] + BASE[1:]
        assert (
            Relation("r", rows(BASE)).fingerprint()
            != Relation("r", rows(changed)).fingerprint()
        )

    def test_differing_payloads_hash_differently(self):
        changed = [(1, (0.9, 0.5), {"flag": "z"})] + BASE[1:]
        assert (
            Relation("r", rows(BASE)).fingerprint()
            != Relation("r", rows(changed)).fingerprint()
        )

    def test_duplicate_multiplicity_matters(self):
        once = rows(BASE)
        twice = rows(BASE) + rows(BASE[:1])
        assert (
            Relation("r", once).fingerprint()
            != Relation("r", twice).fingerprint()
        )

    def test_fingerprint_is_cached(self):
        relation = Relation("r", rows(BASE))
        assert relation.fingerprint() is relation.fingerprint()


class TestQueryFingerprint:
    def make_specs(self, **b_kwargs):
        left = Relation("L", rows(BASE))
        right = Relation("R", rows(BASE))
        a = QuerySpec(relations=(left, right), k=5)
        b = QuerySpec(relations=(left, right), k=5, **b_kwargs)
        return a, b

    def test_k_is_excluded_for_prefix_reuse(self):
        left = Relation("L", rows(BASE))
        right = Relation("R", rows(BASE))
        small = QuerySpec(relations=(left, right), k=2)
        large = QuerySpec(relations=(left, right), k=9)
        assert small.fingerprint() == large.fingerprint()

    def test_operator_choice_keeps_the_fingerprint(self):
        """Every operator releases the same answer, ties included."""
        a, b = self.make_specs(operator="HRJN")
        assert a.fingerprint() == b.fingerprint()

    def test_scoring_identity_changes_fingerprint(self):
        a, b = self.make_specs(scoring=WeightedSum([2.0, 1.0, 1.0, 1.0]))
        assert a.fingerprint() != b.fingerprint()

    def test_equal_weighted_sums_share_fingerprint(self):
        assert scoring_fingerprint(WeightedSum([1.0, 2.0])) == \
            scoring_fingerprint(WeightedSum([1.0, 2.0]))
        assert scoring_fingerprint(WeightedSum([1.0, 2.0])) != \
            scoring_fingerprint(WeightedSum([2.0, 1.0]))
        assert scoring_fingerprint(SumScore()) == scoring_fingerprint(SumScore())

    def test_relation_order_matters_for_queries(self):
        left = Relation("L", rows(BASE))
        other = [(7, (0.2, 0.2), None)]
        right = Relation("R", rows(other))
        a = QuerySpec(relations=(left, right), k=3)
        b = QuerySpec(relations=(right, left), k=3)
        assert a.fingerprint() != b.fingerprint()
