"""The oracle bound: a clairvoyant reference for instance-optimality.

Instance-optimality compares an operator against the best *possible*
algorithm on each instance.  That best algorithm is unknowable online, but
offline we can build a bounding scheme that inspects the whole instance and
always returns the **exact** maximum score among undiscovered results:

    t* = max { S(τ) : τ = L[i] ⋈ R[j],  i >= depth_L  or  j >= depth_R }

which is the tightest bound any deterministic scheme could ever report.
PBRJ instantiated with the oracle bound therefore terminates as early as
*any* correct deterministic operator with the same pulling strategy — an
empirical stand-in for OPT.  The paper's optimality ratio (Theorem 4.3's
factor 2) can then be *measured*: ``sumDepths(FRPA) / sumDepths(oracle)``.

Precomputation makes the oracle O(1) per update: every join result is
tagged with its operands' positions, and two suffix-maximum arrays answer
"best result using a left tuple at position >= p" (resp. right) directly.
"""

from __future__ import annotations

from repro.core.bounds import BoundingScheme
from repro.core.pbrj import PBRJ, releasable
from repro.core.pulling import PotentialAdaptive, PullingStrategy, RoundRobin
from repro.core.scoring import NEG_INF
from repro.core.tuples import RankTuple
from repro.relation.relation import RankJoinInstance


class OracleBound(BoundingScheme):
    """Clairvoyant bound over a fully known instance (offline analysis only)."""

    def __init__(self, instance: RankJoinInstance) -> None:
        super().__init__()
        self._instance = instance
        left = instance.sorted_tuples(0)
        right = instance.sorted_tuples(1)
        positions: dict = {}
        for j, tup in enumerate(right):
            positions.setdefault(tup.key, []).append(j)
        # score of the best join result whose left operand sits at
        # position >= i (suffix max over left positions), and symmetric.
        best_at_left = [NEG_INF] * (len(left) + 1)
        best_at_right = [NEG_INF] * (len(right) + 1)
        for i, ltup in enumerate(left):
            for j in positions.get(ltup.key, ()):
                score = instance.scoring(ltup.scores + right[j].scores)
                best_at_left[i] = max(best_at_left[i], score)
                best_at_right[j] = max(best_at_right[j], score)
        for i in range(len(left) - 1, -1, -1):
            best_at_left[i] = max(best_at_left[i], best_at_left[i + 1])
        for j in range(len(right) - 1, -1, -1):
            best_at_right[j] = max(best_at_right[j], best_at_right[j + 1])
        self._suffix = (best_at_left, best_at_right)
        self._depths = [0, 0]

    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        self._depths[side] += 1
        return self.current()

    def current(self) -> float:
        return max(
            self._suffix[0][self._depths[0]],
            self._suffix[1][self._depths[1]],
        )

    def potential(self, side: int) -> float:
        """Best score still reachable through ``side``'s unseen tuples."""
        return self._suffix[side][self._depths[side]]

    def notify_exhausted(self, side: int) -> float:
        self._depths[side] = len(self._suffix[side]) - 1
        return self.current()


def oracle_operator(
    instance: RankJoinInstance,
    strategy: PullingStrategy | None = None,
    **kwargs,
) -> PBRJ:
    """PBRJ with the oracle bound — the empirical OPT reference."""
    return PBRJ(
        instance.scans(),
        instance.scoring,
        OracleBound(instance),
        strategy or PotentialAdaptive(),
        name="ORACLE",
        **kwargs,
    )


def optimal_sum_depths(instance: RankJoinInstance, k: int | None = None) -> int:
    """Best sumDepths over oracle operators with both stock strategies.

    NOTE: this is a *clairvoyant* reference — a strict lower bound that no
    legal (correct-on-all-consistent-inputs) operator can always achieve,
    because it stops before the read prefix certifies the answer.  For the
    legal optimum use :func:`certificate_optimal_sum_depths`.
    """
    k = k if k is not None else instance.k
    best = None
    for strategy in (PotentialAdaptive(), RoundRobin()):
        operator = oracle_operator(instance, strategy)
        operator.top_k(k)
        depths = operator.sum_depths
        best = depths if best is None else min(best, depths)
    return best


def _certificate_holds(
    instance: RankJoinInstance, d_left: int, d_right: int, k: int
) -> bool:
    """Does the prefix pair prove the top-K answer?

    True iff (a) at least K join results lie inside the prefix and (b) the
    tight feasible-region bound computed from the prefix does not exceed
    the K-th best discovered score — i.e. a correct deterministic operator
    could stop here (this is exactly PBRJ's release rule,
    :func:`~repro.core.pbrj.releasable`, with the tight FR bound standing in
    for "any correct bound").
    """
    from repro.core.bounds import BoundContext
    from repro.core.frstar_bound import FRStarBound

    left = instance.sorted_tuples(0)[:d_left]
    right = instance.sorted_tuples(1)[:d_right]
    buckets: dict = {}
    for tup in left:
        buckets.setdefault(tup.key, []).append(tup)
    discovered = []
    for rtup in right:
        for ltup in buckets.get(rtup.key, ()):
            discovered.append(instance.scoring(ltup.scores + rtup.scores))
    if len(discovered) < k:
        return False
    discovered.sort(reverse=True)
    kth = discovered[k - 1]

    bound = FRStarBound()
    bound.bind(BoundContext(instance.scoring, instance.dims))
    t = float("inf")
    for tup in left:
        t = bound.update(0, tup)
    for tup in right:
        t = bound.update(1, tup)
    if d_left >= len(instance.sorted_tuples(0)):
        t = bound.notify_exhausted(0)
    if d_right >= len(instance.sorted_tuples(1)):
        t = bound.notify_exhausted(1)
    return releasable(kth, t)  # t is -inf once both inputs are exhausted


def certificate_optimal_sum_depths(
    instance: RankJoinInstance, k: int | None = None
) -> int:
    """The legal optimum: minimal ``d_left + d_right`` with a certificate.

    This is the quantity instance-optimality compares against (any correct
    deterministic operator must read a certifying prefix; conversely a
    nondeterministically lucky operator could stop right there).  Computed
    by a staircase sweep — ``min d_right`` is non-increasing in ``d_left``
    — so the cost is O((n_left + n_right) certificate evaluations.  Meant
    for offline analysis of small instances.
    """
    k = k if k is not None else instance.k
    n_left = len(instance.sorted_tuples(0))
    n_right = len(instance.sorted_tuples(1))
    if not _certificate_holds(instance, n_left, n_right, k):
        raise ValueError("instance has fewer than K results — no certificate")
    best = None
    d_right = n_right
    for d_left in range(n_left + 1):
        # Shrink d_right as far as this d_left allows.
        while d_right > 0 and _certificate_holds(instance, d_left, d_right - 1, k):
            d_right -= 1
        if _certificate_holds(instance, d_left, d_right, k):
            total = d_left + d_right
            best = total if best is None else min(best, total)
        # Early exit: d_right can only shrink; once d_left alone exceeds
        # the best total no improvement is possible.
        if best is not None and d_left + 1 >= best:
            break
    assert best is not None
    return best
