"""The resumable-operator contract, one suite over every implementer.

The contract (:mod:`repro.core.stepping`):

* ``try_next(max_pulls=q)`` returns a result, ``PENDING`` (quantum spent,
  all state retained), or ``None`` (join exhausted); ``try_next()`` is
  ``get_next()``; ``try_next(0)`` does no work but still drains what is
  already provable;
* ``top_k(k)`` retains its history, so ``top_k(k + m)`` after ``top_k(k)``
  continues from where the first call stopped — pull counts do not
  restart and the first ``k`` results are unchanged — and ``top_k(k')``
  for ``k' <= k`` costs zero new pulls;
* ``frontier()`` bounds everything still to come and never rises.

Every in-tree implementer runs the same cases: the six PBRJ
instantiations, any-k (binary and chain), the multiway operator under
both bounds, and the sharded engine.
"""

from functools import partial

import numpy as np
import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.core import OPERATORS, SumScore, make_operator, multiway_rank_join
from repro.core.afr_bound import AFRBound
from repro.core.pbrj import SCORE_EPS
from repro.core.stepping import PENDING, ResumableOperator
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.exec import ExecConfig, ShardedRankJoin
from repro.relation.relation import Relation

BINARY = random_instance(
    n_left=120, n_right=120, e_left=2, e_right=2, num_keys=12, k=20, seed=0
)


def make_chain(seed=0):
    """Three random relations joined A.x = B.x, B.y = C.y."""
    rng = np.random.default_rng(seed)

    def rows(name, attrs):
        return Relation(name, [
            RankTuple(
                key=i, scores=(float(rng.random()),),
                payload={a: int(rng.integers(0, 6)) for a in attrs},
            )
            for i in range(30)
        ])

    return [rows("A", ["x"]), rows("B", ["x", "y"]), rows("C", ["y"])], ["x", "y"]


CHAIN = make_chain()
TWO_SHARDS = ExecConfig(shards=2, backend="serial")

#: id -> zero-argument factory of a fresh operator (same input every call).
IMPLEMENTERS = {
    **{name: partial(make_operator, name, BINARY) for name in OPERATORS},
    "AnyK": partial(make_operator, "AnyK", BINARY),
    "AnyK-chain": lambda: AnyKRankJoin(AnyKQuery(*CHAIN), SumScore()),
    "MW-corner": partial(multiway_rank_join, *CHAIN, SumScore()),
    "MW-feasible": lambda: multiway_rank_join(
        *CHAIN, SumScore(), bound=AFRBound()
    ),
    "sharded": partial(ShardedRankJoin, BINARY, "FRPA", config=TWO_SHARDS),
}
#: A pull quantum is a hard cap everywhere but any-k, whose emission may
#: overshoot by one tie batch (documented in ``repro.anyk.engine``).
PULL_BOUNDED = [name for name in IMPLEMENTERS if not name.startswith("AnyK")]


@pytest.fixture
def make(request):
    """Factory of fresh operators for one implementer; closes what it built."""
    built = []

    def build():
        built.append(IMPLEMENTERS[request.param]())
        return built[-1]

    yield build
    for operator in built:
        getattr(operator, "close", lambda: None)()


def scores(results):
    return [r.score for r in results]


def stepped_prefix(operator, k, quantum):
    """The first ``k`` results, taken ``quantum`` pulls at a time."""
    results = []
    while len(results) < k:
        outcome = operator.try_next(max_pulls=quantum)
        if outcome is None:
            break
        if outcome is not PENDING:
            results.append(outcome)
    return results


@pytest.mark.parametrize("make", sorted(IMPLEMENTERS), indirect=True)
class TestContract:
    def test_satisfies_the_protocol(self, make):
        assert isinstance(make(), ResumableOperator)

    def test_zero_quantum_drains_without_pulling(self, make):
        operator = make()
        assert operator.try_next(max_pulls=0) is PENDING  # nothing provable yet
        assert operator.pulls == 0
        operator.get_next()
        pulls = operator.pulls
        while operator.try_next(max_pulls=0) not in (None, PENDING):
            pass  # whatever is already provable comes out ...
        assert operator.pulls == pulls  # ... and costs nothing

    def test_pending_retains_state(self, make):
        stepped = stepped_prefix(make(), 10, quantum=3)
        assert scores(stepped) == scores(make().top_k(10))

    def test_unbounded_try_next_is_get_next(self, make):
        a, b = make(), make()
        for _ in range(5):
            assert a.try_next().score == b.get_next().score

    def test_top_k_extension_repeats_no_pulls(self, make):
        resumed, fresh = make(), make()
        head = resumed.top_k(4)
        pulls_at_head = resumed.pulls
        extended = resumed.top_k(10)
        assert scores(extended) == scores(fresh.top_k(10))
        assert all(a is b for a, b in zip(extended, head))  # literally retained
        # The extension resumed: no pulls were repeated, so the total
        # matches a single straight run.
        assert pulls_at_head <= resumed.pulls == fresh.pulls

    def test_shrinking_k_costs_zero_pulls(self, make):
        operator = make()
        full = operator.top_k(8)
        pulls = operator.pulls
        assert operator.top_k(3) == full[:3]
        assert operator.top_k(8) == full
        assert operator.pulls == pulls

    def test_get_next_interleaves_with_top_k(self, make):
        mixed = make()
        first = mixed.get_next()
        rest = mixed.top_k(5)
        assert rest[0] is first  # get_next results are part of the history
        assert mixed.emitted_results == rest
        assert scores(rest) == scores(make().top_k(5))

    def test_frontier_never_rises(self, make):
        operator = make()
        frontier = float("inf")
        for _ in range(200):
            outcome = operator.try_next(max_pulls=4)
            if outcome is None:
                break
            if outcome is not PENDING:  # it was bounded before it came out
                assert outcome.score <= frontier + SCORE_EPS
            assert operator.frontier() <= frontier + SCORE_EPS
            frontier = operator.frontier()

    def test_exhaustion_is_terminal(self, make):
        operator = make()
        while (outcome := operator.try_next(max_pulls=64)) is not None:
            assert outcome is PENDING or outcome.score is not None
        # Once exhausted, every further call answers None immediately.
        assert operator.try_next(max_pulls=4) is None
        assert operator.get_next() is None
        assert operator.frontier() == float("-inf")


@pytest.mark.parametrize("make", sorted(PULL_BOUNDED), indirect=True)
def test_quantum_bounds_pulls_per_call(make):
    operator = make()
    while True:
        before = operator.pulls
        outcome = operator.try_next(max_pulls=5)
        assert operator.pulls - before <= 5
        if outcome is not PENDING:
            break
