"""Property tests: any-k enumeration and the PBRJ loop vs the oracle on
random workloads.

The satellite contract: over random binary joins and chains — a chain may
reuse an attribute name on a later link — *with duplicate scores, exact
ties and content-identical duplicate tuples*, driven in steps
of a drawn pull budget, the enumeration must be (a) monotone
non-increasing in score, (b) duplicate-free, and (c) exactly equal —
scores and canonical tie order — to the oracle's top-K.  The one PBRJ
loop (corner bound or aFR, PA pulling) is held to the same scores bit for
bit and the same results as a multiset: it breaks exact ties by arrival,
so its order inside a tie is not compared.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.core.afr_bound import AFRBound
from repro.core.bounds import CornerBound
from repro.core.naive import naive_top_k
from repro.core.operators import multiway_rank_join
from repro.core.pbrj import SCORE_EPS
from repro.core.scoring import SumScore
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.relation.relation import Relation, tuple_identity
from tests.chain_oracle import chain_combos

# Coarse score grid + tiny key/value domains: exact duplicate scores and
# exact tie groups are the common case, not the corner case.
score = st.sampled_from([0.0, 0.1, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0])
small = st.integers(0, 2)
#: ``try_next(max_pulls=...)`` step sizes; ``None`` is unbounded.
budgets = st.one_of(st.none(), st.integers(1, 9))
#: The evaluation engines: any-k, and the PBRJ loop under PA per bound.
ENGINES = {
    "anyk": AnyKRankJoin,
    "corner": lambda query, scoring: multiway_rank_join(
        query.relations, query.join_attrs, scoring, bound=CornerBound()),
    "afr": lambda query, scoring: multiway_rank_join(
        query.relations, query.join_attrs, scoring, bound=AFRBound()),
}
engines = st.sampled_from(sorted(ENGINES))


def with_repeats(draw, rows):
    """``rows`` plus a drawn handful of them again: the same content twice
    is two tuples, each its own join result, tied on everything."""
    return rows + draw(st.lists(st.sampled_from(rows), max_size=4))


def _identity(combo):
    """Canonical content identity of a result's relation-ordered tuples."""
    return tuple(tuple_identity(t) for t in combo)


def binary_query(draw):
    def side(name):
        rows = with_repeats(draw, draw(
            st.lists(st.tuples(small, score), min_size=1, max_size=12)
        ))
        return Relation(
            name, [RankTuple(key=k, scores=(s,)) for k, s in rows]
        )

    return AnyKQuery.binary(side("L"), side("R"))


def chain_query(draw):
    def rel(name, attrs):
        rows = with_repeats(draw, draw(
            st.lists(
                st.tuples(small, *([small] * len(attrs)), score),
                min_size=1, max_size=6,
            )
        ))
        return Relation(
            name,
            [
                RankTuple(
                    key=row[0],
                    scores=(row[-1],),
                    payload=dict(zip(attrs, row[1:-1])),
                )
                for row in rows
            ],
        )

    # Three or four relations, links on x or y with repeats: a name that
    # comes back further down the chain still joins only its own link.
    join_attrs = draw(st.lists(st.sampled_from(["x", "y"]), min_size=2, max_size=3))
    links = [(), *((a,) for a in join_attrs), ()]
    relations = tuple(
        rel(name, sorted(set(links[i] + links[i + 1])))
        for i, name in enumerate("ABCD"[:len(join_attrs) + 1])
    )
    return AnyKQuery(relations, join_attrs)


def oracle(query, scoring):
    """Full enumeration in the engine's canonical order: score desc, then
    the canonical content identity — the cross-core tie-order contract."""
    results = [
        (scoring(tuple(s for t in combo for s in t.scores)), combo)
        for combo in chain_combos(query.relations, query.join_attrs)
    ]
    results.sort(key=lambda pair: (-pair[0], _identity(pair[1])))
    return results


def stepped(operator, budget):
    """Everything ``operator`` emits when driven ``budget`` pulls a step."""
    emitted = []
    while True:
        outcome = operator.try_next(max_pulls=budget)
        if outcome is None:
            return emitted
        if outcome is not PENDING:
            emitted.append(outcome)


def assert_enumeration_contract(query, budget=None, engine="anyk"):
    """Check ``engine``'s full enumeration; returns its scores, descending."""
    scoring = SumScore()
    expected = oracle(query, scoring)
    emitted = stepped(ENGINES[engine](query, scoring), budget)

    scores = [r.score for r in emitted]
    # (a) monotone non-increasing (the loop: up to its emission tolerance).
    if engine == "anyk":
        assert scores == sorted(scores, reverse=True)
    assert all(a >= b - SCORE_EPS for a, b in zip(scores, scores[1:]))
    # (b) duplicate-free: no input-tuple combination emitted twice.  (By
    # object identity — relations may hold content-identical tuples, and
    # each occurrence is its own join result.)
    combos = [
        tuple(getattr(r, "tuples", None) or (r.left, r.right)) for r in emitted
    ]
    object_ids = [tuple(id(t) for t in combo) for combo in combos]
    assert len(set(object_ids)) == len(object_ids)
    identities = [_identity(combo) for combo in combos]
    # (c) exactly the oracle: scores bit-identical, ties in canonical order
    # (the loop: the same scored results as a multiset).
    if engine == "anyk":
        assert scores == [s for s, __ in expected]
        assert identities == [_identity(combo) for __, combo in expected]
    assert sorted(zip(scores, identities)) == sorted(
        (s, _identity(combo)) for s, combo in expected
    )
    return sorted(scores, reverse=True)


class TestEnumerationProperties:
    @given(data=st.data(), budget=budgets, engine=engines)
    @settings(max_examples=120, deadline=None)
    def test_binary_matches_oracle(self, data, budget, engine):
        query = binary_query(data.draw)
        scores = assert_enumeration_contract(query, budget, engine)
        # ... and the join-and-sort oracle the PBRJ family is held to.
        left, right = query.relations
        naive = naive_top_k(left.tuples, right.tuples, SumScore(), len(scores) + 1)
        assert scores == [r.score for r in naive]

    @given(data=st.data(), budget=budgets, engine=engines)
    @settings(max_examples=80, deadline=None)
    def test_chain3_matches_oracle(self, data, budget, engine):
        """Chains of three or four relations (``chain_query``)."""
        assert_enumeration_contract(chain_query(data.draw), budget, engine)

    @given(data=st.data(), k=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_topk_is_a_prefix_of_the_full_enumeration(self, data, k):
        query = binary_query(data.draw)
        full = [r.score for r in AnyKRankJoin(query)]
        prefix = [r.score for r in AnyKRankJoin(query).top_k(k)]
        assert prefix == full[: min(k, len(full))]
