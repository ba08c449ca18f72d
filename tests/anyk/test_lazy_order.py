"""Lazy group order ≡ eager group order.

The DP orders a group's rows only when the enumeration first reaches it,
over a grouping its relations prepared once (``Relation.link``), by
``-best`` alone with row order between equals.  The oracle here is the
close it replaced: a dict probe per distinct link value, then one stable
``lexsort`` of every surviving row by ``(connection code, -best,
identity rank)`` cut into groups — so equal-``best`` rows come in
identity order there, and the equality below is also the check that the
tie order inside a group cannot be seen from outside (the engine sorts
every tie batch by identity).  Both are drained to exhaustion (K beyond
the join) at several step budgets; the emitted ``(float.hex(score),
identities)`` sequence, ``pulls``, ``depths()`` and ``pruned`` must be
equal.
"""

import numpy as np
import pytest

from repro.anyk import AnyKQuery, AnyKRankJoin, dp
from repro.core.scoring import SumScore, WeightedSum
from repro.core.stepping import PENDING
from repro.core.tuples import RankTuple
from repro.relation.relation import Relation, tuple_identity
from tests.chain_oracle import chain_combos

QUANTA = (1, 7, 64, None)


def identity_ranks(identities):
    """The dense rank of every identity (equal ones share a rank)."""
    rank_of = {value: rank for rank, value in enumerate(sorted(set(identities)))}
    return np.array([rank_of[value] for value in identities], dtype=np.intp)


class EagerColumns:
    """The DP's node columns with every group ordered at close."""

    def __init__(self, node, child):
        self.node = node
        self.child = child
        self.ranks = identity_ranks(node.identities)
        self.best = np.empty(len(node))
        self.alive = np.ones(len(node), dtype=bool)
        if child is not None:
            self.value_gids = np.array(
                [child.gid_of.get(v, -1) for v in node.child_keys[0]], dtype=np.intp
            )
            self.child_gids = np.empty(len(node), dtype=np.intp)
        self.groups = {}

    def advance(self, start, stop):
        best = self.node.weights[start:stop]
        alive = self.alive[start:stop]
        if self.child is not None:
            codes = self.node.child_keys[1]
            found = self.child_gids[start:stop] = self.value_gids[codes[start:stop]]
            alive &= found >= 0
            best = best + self.child.group_best[found]
        self.best[start:stop] = best
        return (stop - start) - int(np.count_nonzero(alive))

    def close(self):
        values, codes = self.node.parent_keys
        rows = np.flatnonzero(self.alive)
        self.order = rows[
            np.lexsort((self.ranks[rows], -self.best[rows], codes[rows]))
        ]
        codes = codes[self.order]
        heads = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]][:len(codes)])
        self.bounds = np.append(heads, len(codes))
        self.group_best = np.append(self.best[self.order[heads]], np.nan)
        self.gid_of = {
            values[code]: gid for gid, code in enumerate(codes[heads].tolist())
        }

    def group(self, gid):
        group = self.groups.get(gid)
        if group is None:
            start, stop = self.bounds[gid:gid + 2]
            group = self.groups[gid] = dp.Group(self, self.order[start:stop])
        return group


def run(query, scoring, quantum):
    operator = AnyKRankJoin(query, scoring)
    lines = []
    while True:
        outcome = operator.try_next(max_pulls=quantum)
        if outcome is None:
            break
        if outcome is not PENDING:
            lines.append((
                float(outcome.score).hex(),
                tuple(tuple_identity(tup) for tup in outcome.tuples),
            ))
    return {
        "lines": lines,
        "pulls": operator.pulls,
        "depths": operator.depths(),
        "pruned": operator._dp.pruned,
    }


GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def keyed(name, rng, n, keys, grid=False):
    scores = (rng.choice(GRID, size=(n, 2)) if grid
              else rng.random((n, 2)).round(3))
    return Relation.from_arrays(name, rng.integers(0, keys, size=n).tolist(), scores)


def with_duplicates(relation):
    rows = list(relation.tuples)
    return Relation(relation.name, rows + rows[: len(rows) // 2] + rows[:3])


def chain(rng, names, attrs, n, values, grid=False):
    links = [(), *((a,) for a in attrs), ()]
    relations = []
    for i, name in enumerate(names):
        columns = sorted(set(links[i] + links[i + 1]))
        relations.append(Relation(name, [
            RankTuple(
                key=j,
                scores=(float(rng.choice(GRID)) if grid
                        else round(float(rng.random()), 3),),
                payload={c: int(rng.integers(0, values)) for c in columns},
            )
            for j in range(n)
        ]))
    return AnyKQuery(tuple(relations), attrs)


def _binary():
    rng = np.random.default_rng(5)
    return AnyKQuery.binary(keyed("L", rng, 40, 8), keyed("R", rng, 30, 8))


def _binary_ties():
    rng = np.random.default_rng(6)
    return AnyKQuery.binary(
        with_duplicates(keyed("L", rng, 30, 5, grid=True)),
        with_duplicates(keyed("R", rng, 30, 5, grid=True)),
    )


def _binary_no_partner():
    """Half the keys of each side are missing on the other."""
    rng = np.random.default_rng(7)
    left = Relation.from_arrays("L", rng.integers(0, 10, 30).tolist(), rng.random((30, 1)))
    right = Relation.from_arrays(
        "R", rng.integers(5, 15, 30).tolist(), rng.random((30, 1)))
    return AnyKQuery.binary(left, right)


def _chain3():
    return chain(np.random.default_rng(8), "ABC", ("x", "y"), 12, 4)


def _chain3_ties():
    query = chain(np.random.default_rng(9), "ABC", ("x", "y"), 10, 3, grid=True)
    return AnyKQuery(tuple(map(with_duplicates, query.relations)), query.join_attrs)


def _chain4():
    return chain(np.random.default_rng(10), "ABCD", ("x", "y", "x"), 8, 3)


def _chain4_ties_no_partner():
    """Tie-heavy, and the middle nodes hold link values the node below
    lacks: their rows find no partner and are pruned."""
    query = chain(np.random.default_rng(11), "ABCD", ("x", "y", "z"), 9, 5, grid=True)
    a, b, c, d = query.relations
    b = Relation("B", [*b.tuples, RankTuple(key=99, scores=(1.0,),
                                            payload={"x": 77, "y": 0})])
    c = Relation("C", [*c.tuples, RankTuple(key=98, scores=(1.0,),
                                            payload={"y": 66, "z": 0})])
    return AnyKQuery((a, with_duplicates(b), c, d), query.join_attrs)


CASES = {
    "binary": (_binary, SumScore()),
    "binary ties and duplicates": (_binary_ties, WeightedSum([1.0, 1.0, 1.0, 1.0 + 1e-6])),
    "binary with unmatched rows": (_binary_no_partner, SumScore()),
    "chain3": (_chain3, SumScore()),
    "chain3 ties and duplicates": (_chain3_ties, SumScore()),
    "chain4": (_chain4, WeightedSum([1.0, 2.0, 0.5, 1.0])),
    "chain4 ties, duplicates, unmatched rows": (_chain4_ties_no_partner, SumScore()),
}


@pytest.mark.parametrize("quantum", QUANTA)
@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_order_emits_what_the_eager_order_emits(monkeypatch, case, quantum):
    build, scoring = CASES[case]
    lazy = run(build(), scoring, quantum)
    with monkeypatch.context() as patch:
        patch.setattr(dp, "_NodeColumns", EagerColumns)
        eager = run(build(), scoring, quantum)
    assert lazy == eager
    query = build()
    # Drained past K = |join|: every answer came out.
    assert len(lazy["lines"]) == sum(
        1 for _ in chain_combos(query.relations, query.join_attrs))


def test_the_cases_reach_ties_and_unmatched_rows():
    for case in ("binary with unmatched rows", "chain4 ties, duplicates, unmatched rows"):
        build, scoring = CASES[case]
        assert run(build(), scoring, None)["pruned"] > 0
    for case in ("binary ties and duplicates", "chain3 ties and duplicates"):
        build, scoring = CASES[case]
        scores = [score for score, _ in run(build(), scoring, None)["lines"]]
        assert len(set(scores)) < len(scores)
