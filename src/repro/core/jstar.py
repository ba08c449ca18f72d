"""A J*-style rank join for single-score inputs (Natsev et al., VLDB 2001).

The paper's related-work section reviews J* (and LARA-J): rank join
operators defined for instances where each relation carries a *single*
score attribute.  This module implements the classic A*-over-the-index-
lattice formulation for the binary case:

* Each input is its sorted list; a *state* ``(i, j)`` denotes the candidate
  pair ``(L[i], R[j])`` whose score — exactly known, since scores are
  single attributes — is its priority.
* The frontier starts at ``(0, 0)``; popping ``(i, j)`` pushes ``(i+1, j)``
  and ``(i, j+1)``.  Because scores decrease along both axes, states pop in
  non-increasing score order, so join-matching pairs are emitted in exactly
  the output order.

Contrast with the PBRJ family (and why the paper excludes J* from its
setting): the lattice walk requires **positional (random) access** into
both inputs, so J* cannot consume a pipelined stream; and between two
matches it may visit many non-matching pairs, paying CPU where PBRJ pays
only hash probes.  Depths are reported as the deepest index touched per
input — J*'s I/O model under positional access.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.core.scoring import ScoringFunction, SumScore
from repro.core.tuples import JoinResult, RankTuple
from repro.errors import InstanceError


class JStar:
    """Binary J*-style rank join over single-score, indexable inputs.

    Parameters
    ----------
    left, right:
        Sequences of tuples sorted by their (single) score, descending.
    scoring:
        Monotone aggregate over the two-coordinate vector; default sum.
    """

    def __init__(
        self,
        left: Sequence[RankTuple],
        right: Sequence[RankTuple],
        scoring: ScoringFunction | None = None,
    ) -> None:
        for side, rows in (("left", left), ("right", right)):
            for tup in rows:
                if tup.dimension != 1:
                    raise InstanceError(
                        f"J* requires single-score inputs; {side} tuple has "
                        f"{tup.dimension} scores"
                    )
            scores = [t.scores[0] for t in rows]
            if any(a < b for a, b in zip(scores, scores[1:])):
                raise InstanceError(f"{side} input not sorted by score")
        self._left = list(left)
        self._right = list(right)
        self.scoring = scoring or SumScore()
        self._heap: list[tuple[float, int, int]] = []
        self._visited: set[tuple[int, int]] = set()
        self._max_i = -1
        self._max_j = -1
        self._states_popped = 0
        if self._left and self._right:
            self._push(0, 0)

    def _push(self, i: int, j: int) -> None:
        if i >= len(self._left) or j >= len(self._right):
            return
        if (i, j) in self._visited:
            return
        self._visited.add((i, j))
        score = self.scoring(
            (self._left[i].scores[0], self._right[j].scores[0])
        )
        heapq.heappush(self._heap, (-score, i, j))

    def get_next(self) -> JoinResult | None:
        """Next join result in non-increasing score order, or None."""
        while self._heap:
            neg_score, i, j = heapq.heappop(self._heap)
            self._states_popped += 1
            self._max_i = max(self._max_i, i)
            self._max_j = max(self._max_j, j)
            self._push(i + 1, j)
            self._push(i, j + 1)
            left, right = self._left[i], self._right[j]
            if left.key == right.key:
                return JoinResult.combine((left, right), -neg_score)
        return None

    def top_k(self, k: int) -> list[JoinResult]:
        results = []
        for __ in range(k):
            result = self.get_next()
            if result is None:
                break
            results.append(result)
        return results

    def __iter__(self):
        while True:
            result = self.get_next()
            if result is None:
                return
            yield result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def depths(self) -> list[int]:
        """Deepest index touched per input (positional-access I/O model)."""
        return [self._max_i + 1, self._max_j + 1]

    @property
    def sum_depths(self) -> int:
        return sum(self.depths())

    @property
    def states_popped(self) -> int:
        """Lattice states expanded — J*'s CPU-cost driver."""
        return self._states_popped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JStar(states={self._states_popped}, depths={self.depths()})"


def jstar_from_instance(instance) -> JStar:
    """Build a J* operator from a (single-score-per-side) instance."""
    return JStar(
        instance.sorted_tuples(0),
        instance.sorted_tuples(1),
        instance.scoring,
    )
