"""The two forms of HRJN / HRJN* answer alike, call by call.

:class:`~repro.core.corner.CornerRankJoin` (array passes over a
:class:`RankJoinInstance`, what ``make_operator`` builds) and the PBRJ
loop with the same components over streams (what pipelined plans build)
are driven with the same ``try_next`` quanta on drawn instances — duplicate
keys and tuples, scores within ``SCORE_EPS`` of each other, 0 and 1
coordinates, empty inputs, ``e`` from 1 to 3 per side, K up to past the
join — and must agree on every outcome (the same tuples, the same score
bits), on pulls, depths, bound, frontier, best buffered score and cost
after every call, and on the bound trace — every pull's side — at the end.
"""

from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.corner import CornerRankJoin
from repro.core.operators import make_components, make_operator
from repro.core.pbrj import PBRJ
from repro.core.scoring import MinScore, SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.obs import Observability
from repro.relation.relation import RankJoinInstance, Relation
from repro.relation.sources import StreamSource
from repro.stats.trace import BoundTrace

# 0/1 boundaries, a coarse grid for exact ties, and neighbours closer than
# SCORE_EPS for ε-ties.
coordinate = st.sampled_from(
    [0.0, 1.0, 0.25, 0.5, 0.75, 0.5 + 1e-12, 0.5 - 1e-12, 0.1, 1 / 3])


@st.composite
def instances(draw):
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    relations = []
    for name, e in zip("LR", dims):
        rows = draw(st.lists(
            st.tuples(st.integers(0, 3), st.tuples(*[coordinate] * e)), max_size=14))
        relation = Relation(name, [RankTuple(key, scores) for key, scores in rows])
        relation.dimension = e  # an empty draw keeps its side's width
        relations.append(relation)
    scoring = draw(st.one_of(
        st.just(SumScore()),
        st.just(MinScore()),
        st.lists(st.sampled_from([0.0, 1.0, 0.5, 1.0 + 1e-6]),
                 min_size=sum(dims), max_size=sum(dims)).map(WeightedSum),
    ))
    instance = RankJoinInstance(*relations, scoring, 1)
    instance.k = draw(st.integers(1, instance.join_size() + 3))
    return instance


def stream_form(name, instance, **options):
    """The PBRJ loop with ``name``'s components over plain streams."""
    sources = [
        StreamSource(instance.sorted_tuples(side), instance.dims[side],
                     cost_model=instance.cost_model)
        for side in (0, 1)
    ]
    return PBRJ(sources, instance.scoring, *make_components(name), name=name, **options)


def state(operator):
    """What a caller can read."""
    return (
        operator.pulls, operator.depth(0), operator.depth(1),
        operator.bound_value.hex(), operator.frontier().hex(),
        operator.best_buffered().hex(), operator.potential(0).hex(),
        operator.potential(1).hex(), operator.stats().io_cost,
    )


def step(operator, quantum):
    outcome = operator.try_next(quantum)
    if outcome is None or outcome is PENDING:
        return outcome
    return outcome.left, outcome.right, outcome.score.hex()


@given(
    instance=instances(),
    name=st.sampled_from(["HRJN", "HRJN*"]),
    quanta=st.lists(st.one_of(st.none(), st.integers(0, 9)), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_array_passes_equal_the_pull_loop(instance, name, quanta):
    forms, traces, observed = [], [], []
    try:
        for build in (make_operator, stream_form):
            traces.append(BoundTrace())
            observed.append(Observability())
            forms.append(build(name, instance, trace=traces[-1], obs=observed[-1]))
        columnar, loop = forms
        assert type(columnar) is CornerRankJoin and type(loop) is PBRJ
        emitted = 0
        for quantum in cycle(quanta + [1]):  # the trailing 1 makes progress
            outcomes = [step(form, quantum) for form in forms]
            assert outcomes[0] == outcomes[1]
            assert state(columnar) == state(loop)
            if outcomes[0] is None:
                break
            emitted += outcomes[0] is not PENDING
            if emitted == instance.k:
                break
        assert traces[0].entries == traces[1].entries
    finally:
        kernels.unobserve()  # the operators registered the kernel sink
