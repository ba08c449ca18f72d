"""One answer per query: every path releases the same list, ties included.

The release rule (:func:`repro.core.pbrj.releasable`) lets a result leave
only once nothing unseen can tie it, and an exact-score tie leaves in
:func:`~repro.core.pbrj.result_identity` order.  So on instances built to
tie — 12 × 12 rows, scores on a quarter grid, 3 join keys — every operator
name, in its array form and in the pull loop, the any-k core, and the
sharded engine over 1 and 2 shards return exactly :func:`naive_top_k`'s
list at K = 8: scores and identities, not only score sequences.
"""

import random

import pytest

from repro.core.naive import naive_top_k
from repro.core.operators import (
    ANYK_OPERATOR,
    OPERATORS,
    build,
    make_components,
    make_operator,
)
from repro.core.pbrj import result_identity
from repro.core.scoring import SumScore
from repro.core.tuples import RankTuple
from repro.exec import ExecConfig, ShardedRankJoin
from repro.relation.relation import RankJoinInstance, Relation

INSTANCES = 200
K = 8
QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)


def tie_instance(seed: int) -> RankJoinInstance:
    rng = random.Random(seed)

    def rows(side: str) -> list[RankTuple]:
        return [RankTuple(rng.randrange(3), (rng.choice(QUARTERS), rng.choice(QUARTERS)),
                          f"{side}{row}") for row in range(12)]

    return RankJoinInstance(Relation("left", rows("l")), Relation("right", rows("r")),
                            SumScore(), K)


def answer(results) -> list[tuple]:
    return [(result.score, result_identity(result)) for result in results]


def paths(name: str):
    """Each way to evaluate ``name``: a label and an operator factory."""
    yield "form", lambda instance: make_operator(name, instance)
    if name != ANYK_OPERATOR:
        yield "loop", lambda instance: build(instance, *make_components(name), name=name)
    for shards in (1, 2):
        yield f"shards={shards}", lambda instance, shards=shards: ShardedRankJoin(
            instance, name, config=ExecConfig(shards=shards))


@pytest.mark.parametrize("name", [*OPERATORS, ANYK_OPERATOR])
def test_every_path_releases_the_naive_list(name):
    """At the parent HRJN*, FRPA, a-FRPA and PBRJ_FR^RR left ties in
    discovery order (197-199 of 200 instances off the canonical order), and
    HRJN* and FRPA returned different top-K sets on 8."""
    wrong = []
    for seed in range(INSTANCES):
        instance = tie_instance(seed)
        expected = answer(naive_top_k(instance.left.tuples, instance.right.tuples,
                                      instance.scoring, K))
        for label, factory in paths(name):
            if answer(factory(instance).top_k(K)) != expected:
                wrong.append((seed, label))
    assert wrong == []
