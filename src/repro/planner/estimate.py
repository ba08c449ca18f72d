"""The planner's one estimator: join size, terminal score and depths.

The paper's companion work (Schnaitter, Spiegel & Polyzotis, *Depth
estimation for ranking query optimization*, VLDB 2007) observes that a cost
model for ranking plans needs to predict how deep a rank join will read.
This module is that estimator, for any arity:

1. **Join size** (:func:`join_count`): exact for two relations, the exact
   pairwise counts independence-chained for a longer chain.
2. **Terminal score** ``S^term`` — the score of the K-th best result —
   estimated by Monte-Carlo convolution of the per-relation score
   distributions (attribute-independence assumption).
3. **Depths** (:func:`estimate_depths`) under the corner-bound termination
   model: an operator stops reading input ``R_i`` once
   ``S̄(R_i[d]) < S^term``, so the estimated depth is the number of tuples
   whose score bound reaches ``S^term``.

Join counts and depths are cached process-wide by content, so re-planning
a query over the same relations costs a dict lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring import ScoringFunction, SumScore, scoring_fingerprint
from repro.relation.relation import KEY_ATTR, Relation
from repro.relation.sources import sorted_access

#: Entries each cache keeps, oldest out: a serving process sees an unbounded
#: stream of distinct relations and per-request weight vectors.
CACHE_LIMIT = 1024

#: Sample size and seed of every terminal-score estimate.
_SAMPLES = 800
_SEED = 0

_join_counts: dict[tuple, float] = {}
_depth_cache: dict[tuple, "DepthEstimate"] = {}


def _cached(cache: dict, key, compute):
    """``cache[key]``, computed on a miss, oldest entries out."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = compute()
        while len(cache) > CACHE_LIMIT:
            del cache[next(iter(cache))]
    return value


def _edge_count(left: Relation, right: Relation, attr: str) -> int:
    """Exact ``|left ⋈ right|`` on ``attr``: the dot product of both key-code
    histograms in one code space."""
    size, mine, theirs = left.joint_key_codes(right, (attr,))
    return int(np.bincount(mine, minlength=size + 1)
               @ np.bincount(theirs, minlength=size + 1))


def join_count(relations: list[Relation], join_attrs: tuple[str, ...] = ()) -> float:
    """``|R1 ⋈ … ⋈ Rn|``, cached by content.

    Two relations join on the tuple key (no ``join_attrs``) and are counted
    exactly; a chain joins relation ``i`` to ``i + 1`` on ``join_attrs[i]``
    and chains the exact pairwise counts with the textbook independence
    rule ``|A ⋈ B ⋈ C| ≈ |A ⋈ B| · |B ⋈ C| / |B|``.
    """
    attrs = tuple(join_attrs) or (KEY_ATTR,)
    if len(relations) < 2:
        raise ValueError("need at least two relations")
    if len(attrs) != len(relations) - 1:
        raise ValueError("need one join attribute per adjacent pair")

    def count():
        edges = [_edge_count(*edge) for edge in zip(relations, relations[1:], attrs)]
        total = edges[0]
        for middle, edge in zip(relations[1:], edges[1:]):
            total *= edge / max(len(middle), 1)
        return total

    key = (*(rel.fingerprint() for rel in relations), attrs)
    return _cached(_join_counts, key, count)


@dataclass(frozen=True)
class DepthEstimate:
    """Predicted depths for one rank join query."""

    depths: tuple[int, ...]
    terminal_score: float
    join_size: float

    @property
    def sum_depths(self) -> int:
        return sum(self.depths)


def estimate_terminal_score(
    relations: list[Relation],
    join_size: float,
    k: int,
    scoring: ScoringFunction | None = None,
    *,
    samples: int = 4000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of ``S^term`` (the K-th best result score).

    Result scores are modeled as the aggregate of independently drawn
    per-relation score vectors; the K-th best of ``join_size`` results sits
    at the ``1 - K/join_size`` quantile of that distribution.
    """
    if join_size < k:
        raise ValueError(f"join too small ({join_size}) for K={k}")
    scoring = scoring or SumScore()
    rng = np.random.default_rng(seed)
    parts = []
    for rel in relations:
        if not rel.tuples:
            raise ValueError(f"relation {rel.name} is empty")
        indexes = rng.integers(0, len(rel.tuples), size=samples)
        parts.append(rel.scored()[1][indexes])
    scores = scoring.batch(np.concatenate(parts, axis=1))
    quantile = max(0.0, min(1.0, 1.0 - k / join_size))
    return float(np.quantile(scores, quantile))


def estimate_depths(
    relations: list[Relation],
    k: int,
    scoring: ScoringFunction | None = None,
    join_attrs: tuple[str, ...] = (),
) -> DepthEstimate:
    """Corner-model depth estimate of a rank join over ``relations``
    (joined as in :func:`join_count`), cached by content.

    The score bound of a tuple of relation ``i`` substitutes 1 for every
    other relation's attributes; its depth is where that bound crosses the
    estimated terminal score.  When the join is smaller than ``k`` or an
    input is empty, any operator reads everything: the estimate is the
    full input sizes with a ``-inf`` terminal score.
    """
    scoring = scoring or SumScore()

    def estimate() -> DepthEstimate:
        join_size = join_count(relations, join_attrs)
        if join_size < k or not all(len(rel) for rel in relations):
            return DepthEstimate(
                tuple(len(rel) for rel in relations), float("-inf"), join_size
            )
        terminal = estimate_terminal_score(
            relations, join_size, k, scoring, samples=_SAMPLES, seed=_SEED
        )
        dims = [rel.dimension for rel in relations]
        depths = []
        for index, rel in enumerate(relations):
            bounds = sorted_access(scoring, dims, index, rel)[2]
            # How many leading tuples have a score bound >= the terminal.
            reached = int(np.searchsorted(-bounds, -terminal, side="right"))
            depths.append(min(reached + 1, len(bounds)))
        return DepthEstimate(tuple(depths), terminal, join_size)

    key = (*(rel.fingerprint() for rel in relations), tuple(join_attrs), k,
           scoring_fingerprint(scoring))
    return _cached(_depth_cache, key, estimate)


def clear_stats_caches() -> None:
    """Drop the join-count cache (tests, memory pressure)."""
    _join_counts.clear()


def clear_depth_cache() -> None:
    """Drop the depth-estimate cache (tests)."""
    _depth_cache.clear()
