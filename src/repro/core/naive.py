"""Naive rank join: materialize the full join, sort, take the top.

This is the correctness oracle for every operator in the library, and the
"conventional join" baseline the paper's introduction contrasts rank join
operators against (it always reads both inputs completely).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.pbrj import Released
from repro.core.scoring import ScoringFunction
from repro.core.tuples import JoinResult, RankTuple


def full_join(
    left: Iterable[RankTuple],
    right: Iterable[RankTuple],
    scoring: ScoringFunction,
) -> list[JoinResult]:
    """Hash-join the inputs completely and score every result."""
    buckets: dict = {}
    for tup in left:
        buckets.setdefault(tup.key, []).append(tup)
    results = []
    for rtup in right:
        for ltup in buckets.get(rtup.key, ()):
            scores = ltup.scores + rtup.scores
            results.append(JoinResult((ltup, rtup), scoring(scores), scores))
    return results


def naive_top_k(
    left: Iterable[RankTuple],
    right: Iterable[RankTuple],
    scoring: ScoringFunction,
    k: int,
) -> list[JoinResult]:
    """The top ``k`` join results in the order every operator releases them
    (:class:`~repro.core.pbrj.Released`): decreasing score, an exact-score
    tie by :func:`~repro.core.pbrj.result_identity`.  So the whole list,
    not only its scores, is the one answer every operator, core and shard
    count must return.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    output = Released()
    for result in full_join(left, right, scoring):
        output.push(result)
    return [output.pop() for _ in range(min(k, len(output)))]


def top_scores(results: Iterable[JoinResult]) -> list[float]:
    """Extract the score sequence of a result list (for comparisons)."""
    return [r.score for r in results]
