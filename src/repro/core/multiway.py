"""Multiway (n-ary) rank join — the paper's Section 2.1 extension.

The paper focuses on binary operators but notes that the n-ary rank join is
interesting in its own right: Schnaitter & Polyzotis proved that multiway
operators can be instance-optimal relative to *plans of binary operators*,
which pay for materializing intermediate orderings.  This module runs the
PBRJ template over a chain of equi-joins:

    R_1 ⋈_{a_1} R_2 ⋈_{a_2} … ⋈_{a_{n-1}} R_n

:class:`MultiwayRankJoin` *is* a :class:`~repro.core.pbrj.PBRJ`: the pull
loop, bound refresh, emission, timers and reporting are inherited, and
this module supplies only the **join step** — a new tuple is joined
against the already-buffered tuples of the other relations by probing hash
indexes along the chain in both directions.  Pulling is potential-adaptive;
the bound is any n-ary-capable :class:`~repro.core.bounds.BoundingScheme`
— by default the corner bound (``thr_i`` substitutes 1 for every other
relation's score attributes), which makes this the HRJN*-style member of
the multiway family; under an additive scoring, a-FRPA's
:class:`~repro.core.afr_bound.AFRBound` is the tight feasible-region one
(its ``2^n − 1`` cases are the binary bound's three).  It is exact (tested against the brute-force oracle)
and incremental, and the accompanying benchmark compares it against
pipelines of binary operators.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bounds import BoundingScheme, CornerBound
from repro.core.pbrj import PBRJ
from repro.core.pulling import PotentialAdaptive
from repro.core.scoring import ScoringFunction
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.obs import Observability
from repro.relation.relation import attr_value
from repro.relation.sources import TupleSource


class MultiwayResult:
    """A complete n-way join result."""

    __slots__ = ("tuples", "score", "scores")

    def __init__(self, tuples: tuple[RankTuple, ...], score: float) -> None:
        self.tuples = tuples
        self.score = score
        self.scores = tuple(s for t in tuples for s in t.scores)

    def merged_payload(self) -> dict:
        merged: dict = {}
        for tup in self.tuples:
            if isinstance(tup.payload, dict):
                merged.update(tup.payload)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiwayResult(score={self.score:.4f}, n={len(self.tuples)})"


class MultiwayRankJoin(PBRJ):
    """An n-ary rank join operator over a chain of equi-joins.

    Parameters
    ----------
    sources:
        One sorted source per relation (decreasing ``S̄`` order, where
        ``S̄`` substitutes 1 for all other relations' attributes).
    join_attrs:
        ``n - 1`` payload attribute names; ``join_attrs[i]`` links relation
        ``i`` and relation ``i + 1``.  Tuple payloads must be dicts
        containing their chain attributes.
    scoring:
        Monotone aggregate over the concatenation of all score vectors in
        relation order.
    bound:
        The bounding scheme (fresh instance, not shared); any scheme that
        accepts ``n`` inputs.  Defaults to the corner bound.

    The remaining keywords are :class:`~repro.core.pbrj.PBRJ`'s.
    """

    def __init__(
        self,
        sources: Sequence[TupleSource],
        join_attrs: Sequence[str],
        scoring: ScoringFunction,
        *,
        bound: BoundingScheme | None = None,
        name: str = "MW-HRJN*",
        obs: "Observability | None" = None,
    ) -> None:
        if len(sources) < 2:
            raise InstanceError("multiway rank join needs at least two inputs")
        if len(join_attrs) != len(sources) - 1:
            raise InstanceError(
                f"need {len(sources) - 1} join attributes for "
                f"{len(sources)} inputs, got {len(join_attrs)}"
            )
        self._join_attrs = list(join_attrs)
        self._n = len(sources)
        # Per relation, buffered tuples indexed by left-chain and
        # right-chain attribute values.
        self._by_left_attr: list[dict] = [dict() for _ in range(self._n)]
        self._by_right_attr: list[dict] = [dict() for _ in range(self._n)]
        self._setup(
            sources, scoring, bound or CornerBound(), PotentialAdaptive(),
            name=name, trace=None, obs=obs,
        )

    # ------------------------------------------------------------------
    # Score-bound helpers
    # ------------------------------------------------------------------
    def score_bound(self, index: int, tup: RankTuple) -> float:
        """``S̄`` of a tuple of relation ``index`` (1-substitution)."""
        return self._bound.context.score_bound(index, tup.scores)

    # ------------------------------------------------------------------
    # Chain attribute access
    # ------------------------------------------------------------------
    def _left_attr(self, index: int) -> str | None:
        """Attribute linking relation ``index`` to ``index - 1``."""
        return self._join_attrs[index - 1] if index > 0 else None

    def _right_attr(self, index: int) -> str | None:
        """Attribute linking relation ``index`` to ``index + 1``."""
        return self._join_attrs[index] if index < self._n - 1 else None

    # ------------------------------------------------------------------
    # The join step
    # ------------------------------------------------------------------
    def _join(self, index: int, rho: RankTuple) -> list[MultiwayResult]:
        """Buffer the tuple; return every full chain it completes."""
        left = self._left_attr(index)
        right = self._right_attr(index)
        if left is not None:
            self._by_left_attr[index].setdefault(
                attr_value(rho, left), []
            ).append(rho)
        if right is not None:
            self._by_right_attr[index].setdefault(
                attr_value(rho, right), []
            ).append(rho)
        return [
            MultiwayResult(
                tuple(combo),
                self.scoring(tuple(s for t in combo for s in t.scores)),
            )
            for combo in self._complete(index, rho)
        ]

    def _complete(self, index: int, rho: RankTuple):
        """All full chains through ``rho`` using buffered tuples."""
        lefts = self._extend_left(index, rho)
        rights = self._extend_right(index, rho)
        for left_part in lefts:
            for right_part in rights:
                yield left_part + [rho] + right_part

    def _extend_left(self, index: int, rho: RankTuple) -> list[list[RankTuple]]:
        """Partial chains covering relations ``0 .. index - 1``."""
        if index == 0:
            return [[]]
        attr = self._join_attrs[index - 1]
        value = attr_value(rho, attr)
        matches = self._by_right_attr[index - 1].get(value, ())
        chains = []
        for partner in matches:
            for prefix in self._extend_left(index - 1, partner):
                chains.append(prefix + [partner])
        return chains

    def _extend_right(self, index: int, rho: RankTuple) -> list[list[RankTuple]]:
        """Partial chains covering relations ``index + 1 .. n - 1``."""
        if index == self._n - 1:
            return [[]]
        attr = self._join_attrs[index]
        value = attr_value(rho, attr)
        matches = self._by_left_attr[index + 1].get(value, ())
        chains = []
        for partner in matches:
            for suffix in self._extend_right(index + 1, partner):
                chains.append([partner] + suffix)
        return chains

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def depths(self) -> list[int]:
        """Tuples pulled from each input."""
        return [source.depth for source in self._sources]

    @property
    def sum_depths(self) -> int:
        return sum(self.depths())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiwayRankJoin(n={self._n}, pulls={self._pulls})"


def multiway_rank_join(
    relations,
    join_attrs: Sequence[str],
    scoring: ScoringFunction,
    *,
    cost_model=None,
    **kwargs,
) -> MultiwayRankJoin:
    """Build a multiway operator from :class:`~repro.relation.Relation` s.

    Each relation is sorted in decreasing order of its multiway score bound
    (1-substitution for every other relation's attributes) and wrapped in a
    fresh single-pass scan.
    """
    from repro.relation.cost import CostModel
    from repro.relation.sources import SortedScan, sorted_access

    cost_model = cost_model or CostModel.clustered_index()
    dims = [rel.dimension for rel in relations]
    sources = []
    for index, rel in enumerate(relations):
        rows, order, bounds = sorted_access(scoring, dims, index, rel)
        sources.append(
            SortedScan(rows, order=order, bounds=bounds, cost_model=cost_model)
        )
    return MultiwayRankJoin(sources, join_attrs, scoring, **kwargs)
