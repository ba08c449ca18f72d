"""Depth estimation for rank join planning.

The paper's companion work (Schnaitter, Spiegel & Polyzotis, *Depth
estimation for ranking query optimization*, VLDB 2007) observes that a cost
model for ranking plans needs to predict how deep a rank join will read.
This module provides a lightweight estimator in that spirit:

1. **Join cardinality** from key-frequency statistics (exact for the
   equi-join of two relations; independence-chained for longer pipelines).
2. **Terminal score** ``S^term`` — the score of the K-th best result —
   estimated by Monte-Carlo convolution of the per-relation score
   distributions (attribute-independence assumption).
3. **Depths** under the corner-bound termination model: an operator stops
   reading input ``R_i`` once ``S̄(R_i[d]) < S^term``, so the estimated
   depth is the number of tuples whose score bound reaches ``S^term``.

The estimates drive :func:`rank_pipeline_orders`, a tiny advisor that ranks
the feasible left-deep orders of a chain query by estimated total depth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.scoring import ScoringFunction, SumScore
from repro.relation.relation import RankJoinInstance, Relation
from repro.relation.sources import sorted_access


def join_cardinality(left: Relation, right: Relation) -> int:
    """Exact ``|L ⋈ R|`` on the relations' keys (frequency product)."""
    left_counts = Counter(t.key for t in left.tuples)
    right_counts = Counter(t.key for t in right.tuples)
    return sum(
        count * right_counts.get(key, 0) for key, count in left_counts.items()
    )


def chain_cardinality(
    relations: list[Relation],
    join_attrs: list[str],
) -> float:
    """Estimated result count of a chain join, assuming independence.

    Exact pairwise frequency products are chained with the standard
    independence correction (divide by the intermediate relation size, the
    textbook ``|A ⋈ B ⋈ C| ≈ |A ⋈ B| · |B ⋈ C| / |B|`` rule).
    """
    if len(relations) < 2:
        raise ValueError("need at least two relations")
    if len(join_attrs) != len(relations) - 1:
        raise ValueError("need one join attribute per adjacent pair")

    def pair_size(a: Relation, b: Relation, attr: str) -> int:
        a_counts = Counter(t.payload[attr] for t in a.tuples)
        b_counts = Counter(t.payload[attr] for t in b.tuples)
        return sum(n * b_counts.get(k, 0) for k, n in a_counts.items())

    estimate = float(pair_size(relations[0], relations[1], join_attrs[0]))
    for index in range(1, len(relations) - 1):
        step = pair_size(relations[index], relations[index + 1], join_attrs[index])
        middle = max(len(relations[index]), 1)
        estimate *= step / middle
    return estimate


@dataclass(frozen=True)
class DepthEstimate:
    """Predicted depths for one rank join instance or plan."""

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
    draws = np.zeros((samples, 0))
    parts = []
    for rel in relations:
        if not rel.tuples:
            raise ValueError(f"relation {rel.name} is empty")
        indexes = rng.integers(0, len(rel.tuples), size=samples)
        parts.append(rel.scored()[1][indexes])
    draws = np.concatenate(parts, axis=1)
    scores = scoring.batch(draws)
    quantile = max(0.0, min(1.0, 1.0 - k / join_size))
    return float(np.quantile(scores, quantile))


def _depth_at_threshold(bounds_desc: np.ndarray, threshold: float) -> int:
    """How many leading tuples have score bound >= threshold."""
    return int(np.searchsorted(-bounds_desc, -threshold, side="right"))


def estimate_binary_depths(
    instance: RankJoinInstance,
    *,
    join_size: int | None = None,
    samples: int = 4000,
    seed: int = 0,
) -> DepthEstimate:
    """Corner-model depth estimate for a binary rank join instance.

    ``join_size`` is the exact ``|L ⋈ R|`` when the caller already holds
    it (the planner caches it by content); ``None`` counts it here.

    Degenerate instances degrade gracefully (mirroring
    :func:`estimate_chain_depths`): when the join is smaller than ``k``
    or an input is empty, any operator reads everything, so the estimate
    is the full input depths with a ``-inf`` terminal score.
    """
    if join_size is None:
        join_size = join_cardinality(instance.left, instance.right)
    if join_size < instance.k or not (len(instance.left) and len(instance.right)):
        return DepthEstimate(
            (len(instance.left), len(instance.right)), float("-inf"), join_size
        )
    terminal = estimate_terminal_score(
        [instance.left, instance.right],
        join_size,
        instance.k,
        instance.scoring,
        samples=samples,
        seed=seed,
    )
    depths = []
    for side in (0, 1):
        bounds = instance.sorted_bounds(side)
        depths.append(min(_depth_at_threshold(bounds, terminal) + 1, len(bounds)))
    return DepthEstimate(tuple(depths), terminal, join_size)


def estimate_chain_depths(
    relations: list[Relation],
    join_attrs: list[str],
    k: int,
    scoring: ScoringFunction | None = None,
    *,
    samples: int = 4000,
    seed: int = 0,
) -> DepthEstimate:
    """Corner-model depth estimate for a chain rank join (any arity).

    The score bound of a tuple of relation ``i`` substitutes 1 for every
    other relation's attributes; the depth is where that bound crosses the
    estimated terminal score.
    """
    scoring = scoring or SumScore()
    join_size = chain_cardinality(relations, join_attrs)
    if join_size < k:
        # The request is unsatisfiable (or the estimate says so); any
        # operator would read everything.
        return DepthEstimate(
            tuple(len(rel) for rel in relations), float("-inf"), join_size
        )
    terminal = estimate_terminal_score(
        relations, join_size, k, scoring, samples=samples, seed=seed
    )
    dims = [rel.dimension for rel in relations]
    depths = []
    for index, rel in enumerate(relations):
        bounds = sorted_access(scoring, dims, index, rel)[2]
        depths.append(min(_depth_at_threshold(bounds, terminal) + 1, len(bounds)))
    return DepthEstimate(tuple(depths), terminal, join_size)


def feasible_chain_orders(n: int) -> list[list[int]]:
    """Left-deep orders of a chain query that keep every join an equi-join.

    A left-deep plan over a chain graph must grow a contiguous interval of
    the chain, so each order is determined by the start relation and the
    sequence of left/right extensions: ``2^(n-1)`` orders in total.
    """
    if n < 1:
        return []
    orders: list[list[int]] = []

    def grow(low: int, high: int, acc: list[int]) -> None:
        if len(acc) == n:
            orders.append(list(acc))
            return
        if low > 0:
            grow(low - 1, high, acc + [low - 1])
        if high < n - 1:
            grow(low, high + 1, acc + [high + 1])

    for start in range(n):
        grow(start, start, [start])
    return orders


def rank_pipeline_orders(
    relations: list[Relation],
    join_attrs: list[str],
    k: int,
    scoring: ScoringFunction | None = None,
    *,
    samples: int = 2000,
    seed: int = 0,
) -> list[tuple[list[int], DepthEstimate]]:
    """Rank feasible chain orders by estimated total depth (best first).

    The estimator is order-independent in its terminal score but not in
    which relations a plan touches first; here the (simple) proxy is the
    chain-depth estimate restricted to the prefix relations, so orders that
    lead with shallow relations score better.
    """
    estimate = estimate_chain_depths(
        relations, join_attrs, k, scoring, samples=samples, seed=seed
    )
    orders = feasible_chain_orders(len(relations))
    ranked = []
    for order in orders:
        # Weight earlier plan positions more: relations joined early are
        # re-read (via intermediate results) by every later stage.
        weighted = sum(
            estimate.depths[rel_index] * (len(order) - position)
            for position, rel_index in enumerate(order)
        )
        ranked.append((order, estimate, weighted))
    ranked.sort(key=lambda item: item[2])
    return [(order, est) for order, est, __ in ranked]
