"""Randomized pipeline correctness: 3-way chains vs brute force."""

import numpy as np
import pytest

from repro.core.operators import multiway_rank_join
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.plan.pipeline import Pipeline
from repro.relation.relation import Relation
from tests.chain_oracle import brute_force


def random_chain(seed, sizes=(40, 40, 40), keys=6):
    rng = np.random.default_rng(seed)

    def rel(name, n, left_attr, right_attr):
        rows = []
        for index in range(n):
            payload = {}
            if left_attr:
                payload[left_attr] = int(rng.integers(0, keys))
            if right_attr:
                payload[right_attr] = int(rng.integers(0, keys))
            key = payload[left_attr or right_attr]
            rows.append(
                RankTuple(key=key, scores=(float(rng.random()),), payload=payload)
            )
        return Relation(name, rows)

    return (
        [
            rel("A", sizes[0], None, "p"),
            rel("B", sizes[1], "p", "q"),
            rel("C", sizes[2], "q", None),
        ],
        ["p", "q"],
    )


def rekeyed(relations, attrs):
    """Key each relation on its chain attribute toward the previous one."""
    out = []
    for index, rel in enumerate(relations):
        attr = attrs[index - 1] if index > 0 else attrs[0]
        out.append(
            Relation(
                rel.name,
                [
                    RankTuple(
                        key=t.payload[attr], scores=t.scores, payload=t.payload
                    )
                    for t in rel.tuples
                ],
            )
        )
    return out


@pytest.mark.parametrize("operator", ["HRJN*", "FRPA", "a-FRPA"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestRandomPipelines:
    def test_three_way_top10(self, operator, seed):
        relations, attrs = random_chain(seed)
        # Key relation i on the attribute shared with relation i-1 (the
        # join performed when it enters the plan).
        keyed = rekeyed(relations, attrs)
        pipeline = Pipeline(keyed, [attrs[1]], operator=operator)
        got = [r.score for r in pipeline.top_k(10)]
        expected = brute_force(relations, attrs, SumScore())[:10]
        assert got == pytest.approx(expected[: len(got)])
        assert len(got) == len(expected)


@pytest.mark.parametrize("seed", [0, 1])
class TestPipelineVsMultiway:
    def test_same_answers(self, seed):
        relations, attrs = random_chain(seed, sizes=(30, 30, 30))
        keyed = rekeyed(relations, attrs)
        pipeline = Pipeline(keyed, [attrs[1]], operator="FRPA")
        pipeline_scores = [r.score for r in pipeline.top_k(8)]
        multiway = multiway_rank_join(relations, attrs, SumScore())
        multiway_scores = [r.score for r in multiway.top_k(8)]
        assert pipeline_scores == pytest.approx(multiway_scores)
