"""The brute-force chain join the rank join tests check against: every
combination of one tuple per relation, kept when each link agrees."""

import itertools

from repro.relation.relation import KEY_ATTR


def chain_combos(relations, join_attrs):
    """Every chain combination, in relation order, per link
    ``R_i.a_i = R_{i+1}.a_i``; ``KEY_ATTR`` reads the tuple key."""
    def value(tup, attr):
        return tup.key if attr == KEY_ATTR else tup.payload[attr]

    return [
        combo
        for combo in itertools.product(*[rel.tuples for rel in relations])
        if all(
            value(left, attr) == value(right, attr)
            for left, right, attr in zip(combo, combo[1:], join_attrs)
        )
    ]


def brute_force(relations, join_attrs, scoring):
    """All chain results' scores by full enumeration, descending."""
    return sorted(
        (
            scoring(tuple(s for t in combo for s in t.scores))
            for combo in chain_combos(relations, join_attrs)
        ),
        reverse=True,
    )
