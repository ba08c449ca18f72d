"""The n-ary feasible-region bound — the paper's "extends naturally" claim.

Section 2.1 remarks that some of the paper's techniques extend naturally
to the n-ary rank join.  Bounding schemes are arity-free
(:mod:`repro.core.bounds`), so :class:`~repro.core.multiway.MultiwayRankJoin`
takes any scheme that accepts ``n`` inputs: the HRJN\\*-style
:class:`~repro.core.bounds.CornerBound` (``thr_i = S̄(ρ_i)`` with
1-substitution for *all* other relations) is its default, and this module
supplies :class:`MultiwayFeasibleBound` — the feasible-region
generalization for **additive** scoring: per-relation covers of the unseen
score vectors (size-bounded, reusing the aFR machinery) make each of the
``2^n − 1`` unseen-subset cases computable as a sum of per-relation
maxima, each capped by the subset's order bound ``min_{i∈U} g_i``.

The subset-case structure mirrors the binary FR bound's three cases
(t_1, t_2, t_both); additivity is what keeps the cover combination from
exploding combinatorially — the restriction is enforced at construction.
"""

from __future__ import annotations

import itertools

from repro.core.afr_bound import AdaptiveCover, check_cover_budget
from repro.core.bounds import BoundContext, BoundingScheme
from repro.core.scoring import NEG_INF
from repro.errors import InstanceError
from repro.geometry.antichain import book_carves
from repro.geometry.skyline import IncrementalSkyline

POS_INF = float("inf")


class MultiwayFeasibleBound(BoundingScheme):
    """Additive-scoring feasible-region bound over n inputs.

    Per relation: an adaptive cover ``CR_i`` of the unseen score vectors
    and the skyline of the seen ones — each carrying the maximum partial
    score over its points — the group buffer ``G_i`` and frontier ``g_i``.  For each non-empty subset ``U`` of "unseen" relations the
    case bound is::

        min(  Σ_{i∈U} maxsum(CR_i) + Σ_{i∉U} maxsum(seen_i),
              min_{i∈U} g_i  )

    and the overall bound is the maximum over the cases — exactly the
    binary FR structure (Figure 3) generalized.
    """

    scheme_name = "multiway-feasible"

    def __init__(self, *, max_cr_size: int = 500, resolution: int = 64) -> None:
        super().__init__()
        check_cover_budget(max_cr_size, resolution)
        self.max_cr_size = max_cr_size
        self.resolution = resolution
        self._n = 0
        self._covers: list[AdaptiveCover] = []
        self._seen_sky: list[IncrementalSkyline] = []
        self._groups: list[list[tuple[float, ...]]] = []
        self._g: list[float] = []
        self._bound = POS_INF
        self._cases: dict[frozenset, float] = {}

    def bind(self, context, scoring=None) -> None:
        """Attach the problem: a :class:`BoundContext`, or ``dims, scoring``."""
        if scoring is not None:
            context = BoundContext(scoring, tuple(context))
        super().bind(context)
        dims, scoring = context.dims, context.scoring
        scorers = [scoring.row_scorer(sum(dims[:i])) for i in range(len(dims))]
        if None in scorers:
            raise InstanceError(
                "MultiwayFeasibleBound requires an additive scoring function"
            )
        self._n = len(dims)
        self._covers = [
            AdaptiveCover(
                d, max_size=self.max_cr_size, resolution=self.resolution, score=score
            )
            for d, score in zip(dims, scorers)
        ]
        self._seen_sky = [
            IncrementalSkyline(score=score, dimension=d)
            for d, score in zip(dims, scorers)
        ]
        self._groups = [[] for __ in dims]
        self._g = [POS_INF] * self._n

    # ------------------------------------------------------------------
    def update(self, index, tup, score_bound=None) -> float:
        if score_bound is None:
            score_bound = self.context.score_bound(index, tup.scores)
        self._seen_sky[index].add(tup.scores)
        if score_bound < self._g[index]:
            self._covers[index].update(self._groups[index])
            self._g[index] = score_bound
            self._groups[index] = [tup.scores]
        else:
            self._groups[index].append(tup.scores)
        self._bound = self._recompute()
        return self._bound

    def _recompute(self) -> float:
        unseen_max = [cover.best for cover in self._covers]
        seen_max = [seen.best for seen in self._seen_sky]
        best = NEG_INF
        self._cases = {}
        for size in range(1, self._n + 1):
            for subset in itertools.combinations(range(self._n), size):
                chosen = frozenset(subset)
                cover = 0.0
                feasible = True
                for i in range(self._n):
                    part = unseen_max[i] if i in chosen else seen_max[i]
                    if part == NEG_INF:
                        feasible = False
                        break
                    cover += part
                order = min(self._g[i] for i in chosen)
                value = min(cover, order) if feasible else NEG_INF
                self._cases[chosen] = value
                best = max(best, value)
        return best

    def flush(self) -> None:
        book_carves(self._covers)

    def current(self) -> float:
        return self._bound

    def potential(self, index) -> float:
        """Max case value among subsets containing ``index``."""
        if not self._cases:
            return POS_INF
        return max(
            (value for subset, value in self._cases.items() if index in subset),
            default=NEG_INF,
        )

    def notify_exhausted(self, index) -> float:
        self._g[index] = NEG_INF
        self._bound = self._recompute()
        return self._bound
