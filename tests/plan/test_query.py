"""The weighted chain query is one :class:`QuerySpec`: every core answers
it as the oracle and the pre-weighted pipeline of Section 6.2.3 do."""

import numpy as np
import pytest

from repro.core.naive import full_join, naive_top_k, top_scores
from repro.core.scoring import SumScore, WeightedSum
from repro.core.tuples import RankTuple
from repro.plan.pipeline import Pipeline
from repro.relation.relation import Relation
from repro.service import QuerySpec

def keyed(name, rows, key_attr="k"):
    return Relation(name, [RankTuple(p[key_attr], s, dict(p)) for p, s in rows])


def test_weighted_execution():
    left = keyed("L", [({"k": 1}, (0.9, 0.4)), ({"k": 2}, (0.5, 0.5)),
                       ({"k": 1}, (0.2, 0.9))])
    right = keyed("R", [({"k": 1}, (0.8,)), ({"k": 2}, (0.6,))])
    spec = QuerySpec((left, right), 1, WeightedSum((0.0, 1.0, 1.0)))
    top = spec.build_operator().top_k(1)[0]
    # With the first attribute zeroed, (0.2, 0.9) wins on the left.
    assert top.score == pytest.approx(0.9 + 0.8)


def test_three_way_query():
    a = keyed("A", [({"k": 1, "j": 7}, (0.9,)), ({"k": 2, "j": 8}, (0.4,))])
    b = keyed("B", [({"k": 1, "j": 7}, (0.8,)), ({"k": 2, "j": 8}, (0.7,))])
    c = keyed("C", [({"j": 7}, (0.6,)), ({"j": 8}, (0.9,))], key_attr="j")
    spec = QuerySpec((a, b, c), 2, join_attrs=("k", "j"))
    results = spec.build_operator().top_k(2)
    assert results[0].score == pytest.approx(0.9 + 0.8 + 0.6)
    assert results[1].score == pytest.approx(0.4 + 0.7 + 0.9)


WEIGHTS = (0.9, 0.3, 0.6, 1.0)  # A carries two scores, B and C one each


def chain(weights=(1.0,) * len(WEIGHTS)):
    """A ⋈_p B ⋈_q C, scores scaled by ``weights``; A and B keyed on p,
    C on q."""
    rng = np.random.default_rng(7)
    scale = iter(weights)

    def relation(name, n, attrs, e, key_attr):
        w = [next(scale) for __ in range(e)]
        rows = []
        for __ in range(n):
            payload = {attr: int(rng.integers(0, 6)) for attr in attrs}
            scores = tuple(wi * float(s) for wi, s in zip(w, rng.random(e)))
            rows.append(RankTuple(payload[key_attr], scores, payload))
        return Relation(name, rows)

    return (relation("A", 40, ["p"], 2, "p"), relation("B", 30, ["p", "q"], 1, "p"),
            relation("C", 25, ["q"], 1, "q"))


@pytest.mark.parametrize("algorithm", ["pbrj", "anyk", "auto"])
def test_weighted_chain_query(algorithm):
    a, b, c = chain()
    spec = QuerySpec((a, b, c), 8, WeightedSum(WEIGHTS), algorithm=algorithm,
                     join_attrs=("p", "q"))
    got = top_scores(spec.build_operator().top_k(8))

    ab = [RankTuple(r.merged_payload()["q"], r.scores, r.merged_payload())
          for r in full_join(a.tuples, b.tuples, SumScore())]
    assert got == top_scores(naive_top_k(ab, c.tuples, WeightedSum(WEIGHTS), 8))
    pipeline = Pipeline(list(chain(WEIGHTS)), ["q"], operator="a-FRPA")
    assert got == top_scores(pipeline.top_k(8))
