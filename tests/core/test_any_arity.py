"""One result type and one depth list for any number of inputs.

Every operator answers ``depths()`` with one int per input, summing to its
``sum_depths``; every result is a :class:`JoinResult` whose score vector is
the very tuple its operator scored (built once, never rebuilt)."""

import random

import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.anyk.engine import anyk_operator
from repro.core.bounds import CornerBound
from repro.core.jstar import jstar_from_instance
from repro.core.operators import OPERATORS, make_operator, multiway_rank_join
from repro.core.pbrj import PBRJ
from repro.core.pulling import PotentialAdaptive
from repro.core.scoring import SumScore
from repro.core.tuples import JoinResult, RankTuple
from repro.data.workload import random_instance
from repro.exec import ExecConfig, ShardedRankJoin
from repro.plan.pipeline import OperatorSource, Pipeline
from repro.relation.relation import Relation


def chain(n, seed=0, rows=12, values=3):
    """``n`` relations of 2-score tuples joined link by link on payload
    attributes ``a0 … a{n-2}``; relation ``i`` is keyed on its link toward
    relation ``i - 1`` (relation 0 on ``a0``), as a :class:`Pipeline`
    wants its inputs."""
    rng = random.Random(seed)
    attrs = [f"a{i}" for i in range(n - 1)]
    relations = []
    for index in range(n):
        names = attrs[max(index - 1, 0):index + 1]
        tuples = []
        for _ in range(rows):
            payload = {name: rng.randrange(values) for name in names}
            tuples.append(RankTuple(payload[names[0]], (rng.random(), rng.random()), payload))
        relations.append(Relation(f"R{index}", tuples))
    return relations, attrs


def pipeline(n, **chain_options):
    """The left-deep HRJN* plan of ``chain(n, **chain_options)``."""
    relations, attrs = chain(n, **chain_options)
    return Pipeline(relations, attrs[1:], operator="HRJN*")


def instance(e=2, seed=3):
    return random_instance(n_left=60, n_right=60, e_left=e, e_right=e,
                           num_keys=8, k=5, seed=seed)


#: name -> () -> (operator, number of inputs)
DEPTH_CASES = {
    **{name: (lambda name=name: (make_operator(name, instance()), 2)) for name in OPERATORS},
    "PBRJ chain3": lambda: (multiway_rank_join(*chain(3), SumScore()), 3),
    "PBRJ chain4": lambda: (multiway_rank_join(*chain(4), SumScore()), 4),
    "any-k binary": lambda: (anyk_operator(instance()), 2),
    "any-k chain3": lambda: (AnyKRankJoin(AnyKQuery(*chain(3))), 3),
    "sharded": lambda: (ShardedRankJoin(
        instance(), "FRPA", config=ExecConfig(shards=2, backend="serial")), 2),
    "pipeline": lambda: (pipeline(4), 4),
    "J*": lambda: (jstar_from_instance(instance(e=1)), 2),
}


@pytest.mark.parametrize("build", DEPTH_CASES.values(), ids=DEPTH_CASES)
def test_depths_is_one_int_per_input(build):
    operator, arity = build()
    assert operator.top_k(5)
    depths = operator.depths()
    assert type(depths) is list and len(depths) == arity
    assert all(type(depth) is int for depth in depths)
    assert sum(depths) == operator.sum_depths > 0
    assert operator.depths() == depths and operator.depths() is not depths


class Recording(SumScore):
    """``SumScore`` that keeps every vector it is called on, by identity."""

    def __init__(self):
        super().__init__()
        self.vectors = {}

    def __call__(self, vector):
        self.vectors[id(vector)] = vector
        return super().__call__(vector)


#: name -> scoring -> (operator, number of inputs)
SCORED = {
    "loop binary": lambda scoring: (PBRJ(instance().scans(), scoring, CornerBound(),
                                         PotentialAdaptive()), 2),
    "loop chain3": lambda scoring: (multiway_rank_join(*chain(3), scoring), 3),
    "any-k binary": lambda scoring: (AnyKRankJoin(
        AnyKQuery.binary(instance().left, instance().right), scoring), 2),
    "any-k chain3": lambda scoring: (AnyKRankJoin(AnyKQuery(*chain(3)), scoring), 3),
}


@pytest.mark.parametrize("build", SCORED.values(), ids=SCORED)
def test_a_result_carries_the_vector_it_was_scored_from(build):
    scoring = Recording()
    operator, arity = build(scoring)
    results = operator.top_k(20)
    assert len(results) == 20
    for result in results:
        assert type(result) is JoinResult and len(result.tuples) == arity
        assert scoring.vectors.get(id(result.scores)) is result.scores
        assert result.scores == tuple(s for tup in result.tuples for s in tup.scores)
        assert (result.left, result.right) == (result.tuples[0], result.tuples[-1])


@pytest.mark.parametrize("n", [3, 4])
def test_pipeline_intermediates_carry_input_scores(n, monkeypatch):
    """An intermediate tuple is the concatenated vector of the relations
    joined so far — every entry in [0, 1], the summed width — and not the
    aggregate score, which passes 1 here."""
    handed_on = []

    def recorded(source, result):
        tup = original(source, result)
        handed_on.append((source.dimension, tup, result.score))
        return tup

    original = OperatorSource._wrap
    monkeypatch.setattr(OperatorSource, "_wrap", recorded)
    assert pipeline(n, seed=n, rows=10, values=2).top_k(10_000)
    widths = {2 * joined for joined in range(2, n)}
    assert {width for width, _, _ in handed_on} == widths
    for width, tup, _ in handed_on:
        assert len(tup.scores) == width
        assert all(0.0 <= s <= 1.0 for s in tup.scores)
    assert max(score for _, _, score in handed_on) > 1.0
