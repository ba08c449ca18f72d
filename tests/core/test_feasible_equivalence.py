"""The two forms of FRPA / FRPA_RR / a-FRPA answer alike, call by call.

:class:`~repro.core.feasible.FeasibleRankJoin` (a walk over per-side bound
columns of a :class:`RankJoinInstance`, what ``make_operator`` builds for an
additive scoring) and the PBRJ loop with the same components over streams
(what pipelined plans build) are driven with the same ``try_next`` quanta
on drawn instances — duplicate keys and tuples, scores within
``SCORE_EPS`` of each other, 0 and 1 coordinates, grid ties, empty inputs,
``e`` from 1 to 3 per side, K up to past the join, a weight of 0 — under
FR* or aFR at cover budgets 2, 4 and 500, pulled by PA or round-robin.
They must agree on every outcome (the same tuples, the same score bits) and
after every call on pulls, depths, bound, potentials, frontier, best
buffered score, cover sizes, Table 1's count, cost and heap peak; on the
bound trace — every pull's side — and the recomputation counter at the end.
"""

from itertools import cycle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.afr_bound import AFRBound
from repro.core.feasible import FeasibleRankJoin
from repro.core.frstar_bound import FRStarBound
from repro.core.operators import make_operator
from repro.core.pbrj import PBRJ
from repro.core.pulling import PotentialAdaptive, RoundRobin
from repro.core.scoring import MinScore, SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.obs import Observability
from repro.relation.cost import CostModel
from repro.relation.relation import RankJoinInstance, Relation
from repro.relation.sources import StreamSource
from repro.stats.trace import BoundTrace

# 0/1 boundaries, a coarse grid for exact ties, and neighbours closer than
# SCORE_EPS for ε-ties.
coordinate = st.sampled_from(
    [0.0, 1.0, 0.25, 0.5, 0.75, 0.5 + 1e-12, 0.5 - 1e-12, 0.1, 1 / 3, 0.9])

BOUNDS = {
    "FR*": FRStarBound,
    **{f"aFR/{size}": (lambda size=size: AFRBound(max_cr_size=size)) for size in (2, 4, 500)},
}
STRATEGIES = {"PA": PotentialAdaptive, "RR": RoundRobin}


@st.composite
def instances(draw):
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    relations = []
    for name, e in zip("LR", dims):
        rows = draw(st.lists(
            st.tuples(st.integers(0, 4), st.tuples(*[coordinate] * e)), max_size=24))
        relation = Relation(name, [RankTuple(key, scores) for key, scores in rows])
        relation.dimension = e  # an empty draw keeps its side's width
        relations.append(relation)
    scoring = draw(st.one_of(
        st.just(SumScore()),
        st.lists(st.sampled_from([0.0, 1.0, 0.5, 1.0 + 1e-6]),
                 min_size=sum(dims), max_size=sum(dims)).map(WeightedSum),
    ))
    instance = RankJoinInstance(*relations, scoring, 1)
    instance.k = draw(st.integers(1, instance.join_size() + 3))
    return instance


def stream_form(instance, bound, strategy, **options):
    """The PBRJ loop with these components over plain streams."""
    sources = [
        StreamSource(instance.sorted_tuples(side), instance.dims[side],
                     cost_model=instance.cost_model)
        for side in (0, 1)
    ]
    return PBRJ(sources, instance.scoring, bound, strategy, **options)


def state(operator):
    """What a caller can read."""
    bound = operator.bound_scheme
    return (
        operator.pulls, operator.depth(0), operator.depth(1),
        operator.bound_value.hex(), operator.frontier().hex(),
        operator.best_buffered().hex(), operator.potential(0).hex(),
        operator.potential(1).hex(), operator.stats().io_cost,
        operator.memory().output, bound.cover_sizes, bound.seen_skyline_sizes,
        operator.stats().bound_recomputations,
    )


def step(operator, quantum):
    outcome = operator.try_next(quantum)
    if outcome is None or outcome is PENDING:
        return outcome
    return outcome.left, outcome.right, outcome.score.hex()


@given(
    instance=instances(),
    bound=st.sampled_from(sorted(BOUNDS)),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    quanta=st.lists(st.one_of(st.none(), st.integers(0, 9)), min_size=1, max_size=6),
)
@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_the_walk_equals_the_pull_loop(instance, bound, strategy, quanta):
    forms, traces, observed = [], [], []
    try:
        for build in (FeasibleRankJoin, stream_form):
            traces.append(BoundTrace())
            observed.append(Observability())
            forms.append(build(instance, BOUNDS[bound](), STRATEGIES[strategy](),
                               name="FR", trace=traces[-1], obs=observed[-1]))
        emitted = 0
        for quantum in cycle(quanta + [1]):  # the trailing 1 makes progress
            outcomes = [step(form, quantum) for form in forms]
            assert outcomes[0] == outcomes[1]
            assert state(forms[0]) == state(forms[1])
            if outcomes[0] is None:
                break
            emitted += outcomes[0] is not PENDING
            if emitted == instance.k:
                break
        assert traces[0].entries == traces[1].entries
        registries = [[(labels, metric.value) for _, labels, metric
                       in obs.metrics.metrics_named("bound_recompute_total")]
                      for obs in observed]
        assert registries[0] == registries[1]
    finally:
        kernels.unobserve()  # the operators registered the kernel sink


def test_a_non_additive_scoring_keeps_the_loop():
    relation = Relation("R", [RankTuple(i % 3, (0.1 * i, 0.5)) for i in range(8)])
    instance = RankJoinInstance(relation, relation, MinScore(), 3)
    assert type(make_operator("FRPA", instance)) is PBRJ
    assert type(make_operator("a-FRPA", instance)) is PBRJ
    additive = RankJoinInstance(relation, relation, SumScore(), 3)
    assert type(make_operator("FRPA_RR", additive)) is FeasibleRankJoin


@pytest.mark.parametrize("name", ["HRJN*", "FRPA", "a-FRPA"])
def test_both_forms_charge_the_same_cost_under_a_fractional_model(name):
    """``charge(model, n)`` and ``n`` single charges agree bit for bit."""
    instance = lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0),
        scoring=WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6]))
    instance.cost_model = CostModel(per_tuple=0.1, seek=0.3)
    columnar = make_operator(name, instance)
    loop = stream_form(instance, *(type(part)() for part in (
        columnar.bound_scheme, columnar._strategy)), name=name)
    assert type(columnar) is not PBRJ
    for operator in (columnar, loop):
        operator.top_k(instance.k)
    depths = columnar.depths()
    assert depths == loop.depths()
    assert columnar.stats().io_cost == loop.stats().io_cost == sum(
        0.3 + 0.1 * depth for depth in depths)


def _on_a_grid(instance, cells):
    """``instance`` with every score rounded up onto ``cells`` per axis:
    exact ties everywhere, so the heap order decides the answer's order."""
    return RankJoinInstance(*(
        Relation(relation.name, [
            RankTuple(t.key, tuple(-(-v * cells // 1) / cells for v in t.scores), t.payload)
            for t in relation.tuples])
        for relation in (instance.left, instance.right)), instance.scoring, instance.k)


@pytest.mark.parametrize("cells", [None, 8])
@pytest.mark.parametrize("name", ["FRPA", "a-FRPA"])
def test_a_large_k_answers_as_the_loop(name, cells):
    """Figure 14's deep end: hundreds of joins, each of the rows pulled since
    the last one, give the loop's answers in the loop's tie order."""
    instance = lineitem_orders_instance(WorkloadParams(k=500, scale=0.002, seed=0))
    if cells is not None:
        instance = _on_a_grid(instance, cells)
    columnar = make_operator(name, instance)
    loop = stream_form(instance, *(type(part)() for part in (
        columnar.bound_scheme, columnar._strategy)), name=name)
    answers = [[(r.left, r.right, r.score.hex()) for r in operator.top_k(instance.k)]
               for operator in (columnar, loop)]
    assert len(answers[0]) == instance.k
    assert answers[0] == answers[1]
    assert columnar.depths() == loop.depths()
