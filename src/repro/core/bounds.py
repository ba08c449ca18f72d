"""Bounding-scheme interface and the corner bound.

A bounding scheme is one of the two pluggable components of the PBRJ
template (Figure 1 of the paper).  After every pulled tuple it returns an
upper bound ``t`` on the score of any join result that still involves an
unseen input tuple; the operator may emit a buffered result only once its
score reaches ``t``.

This module defines the interface plus the **corner bound** of HRJN*: keep a
per-input threshold ``thr_i = S̄(ρ_i)`` (score bound of the last tuple pulled
from input ``i``) and report ``max_i thr_i``.  The corner bound
implicitly assumes the ideal vector ``(1, …, 1)`` may appear in each input,
which is what makes HRJN* non-robust on inputs with a score cut.

The interface is arity-free: ``side`` indexes one of ``len(context.dims)``
inputs, so the same scheme serves the binary operators and the n-ary
:class:`~repro.core.multiway.MultiwayRankJoin` (Section 2.1).  The corner
bound and :class:`~repro.core.multiway_fr.MultiwayFeasibleBound` accept any
arity; the FR family is defined for two inputs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.scoring import NEG_INF, ScoringFunction
from repro.core.tuples import RankTuple
from repro.obs.metrics import MetricRegistry
from repro.relation import sources

POS_INF = float("inf")

LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class BoundContext:
    """Static problem information handed to a bounding scheme.

    ``dims`` holds the per-input score dimensionalities ``(e_1, …, e_n)``;
    ``scoring`` is the monotone aggregate over the concatenated vector.
    ``columns``, when a caller provides them, are per-side columnar score
    columns (:class:`~repro.kernels.PointSet`) that the *caller* appends
    every pulled tuple's score vector to before each ``update`` — the plain
    FR bound aliases them as its "seen" sets; without them (the operators
    pass none) it keeps private columns.  No other scheme reads them.
    """

    scoring: ScoringFunction
    dims: tuple[int, ...]
    columns: tuple | None = None

    def score_bound(self, side: int, scores: tuple[float, ...]) -> float:
        """``S̄`` of a tuple from ``side``: substitute 1 for missing scores."""
        return sources.score_bound(self.scoring, self.dims, side, scores)

    def combine(self, left_scores, right_scores) -> float:
        """Score of a (possibly hypothetical) combined vector."""
        return self.scoring(tuple(left_scores) + tuple(right_scores))


class BoundingScheme(ABC):
    """Pluggable bound computation for the PBRJ template."""

    #: Scheme label used on metrics (``bound_recompute_total{scheme=...}``).
    scheme_name = "abstract"

    def __init__(self) -> None:
        self.context: BoundContext | None = None

    def bind(self, context: BoundContext) -> None:
        """Attach problem information; called once by the operator."""
        self.context = context

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        """Attach metric handles; called by the operator when obs is on.

        Subclasses resolve their counters/histograms here — the default
        scheme has nothing to record.
        """

    def flush(self) -> None:
        """Publish what was tallied since the last call (each step's end)."""

    @abstractmethod
    def update(
        self, side: int, tup: RankTuple, score_bound: float | None = None
    ) -> float:
        """Process a newly pulled tuple; return the updated bound ``t``.

        ``score_bound`` is the tuple's ``S̄`` when the source carried it
        (sorted access computed it to order the input); without it the
        scheme computes the same value itself.
        """

    @abstractmethod
    def current(self) -> float:
        """The bound value as of the last update."""

    @abstractmethod
    def potential(self, side: int) -> float:
        """Max score of an unseen-involving result drawing from ``side``.

        Drives adaptive pulling: HRJN*'s threshold strategy and the PA
        strategy are both 'pull the side with the larger potential'; they
        differ only in how their bounding scheme defines it.
        """

    def notify_exhausted(self, side: int) -> float:
        """Input ``side`` has no more tuples; collapse its contribution."""
        raise NotImplementedError

    # Statistics hook: number of "expensive" bound computations (cover-bound
    # cross products for the FR family; trivially 0 for the corner bound).
    @property
    def cover_recomputations(self) -> int:
        return 0


class CornerBound(BoundingScheme):
    """HRJN*'s corner bound (Section 3.1)."""

    scheme_name = "corner"

    def __init__(self) -> None:
        super().__init__()
        self._thr = [POS_INF, POS_INF]

    def bind(self, context: BoundContext) -> None:
        super().bind(context)
        self._thr = [POS_INF] * len(context.dims)

    def update(self, side: int, tup: RankTuple, score_bound=None) -> float:
        assert self.context is not None, "bind() must be called first"
        if score_bound is None:
            score_bound = self.context.score_bound(side, tup.scores)
        self._thr[side] = score_bound
        return self.current()

    def current(self) -> float:
        return max(self._thr)

    def potential(self, side: int) -> float:
        return self._thr[side]

    def notify_exhausted(self, side: int) -> float:
        self._thr[side] = NEG_INF
        return self.current()

    @property
    def thresholds(self) -> tuple[float, ...]:
        """The per-input thresholds ``(thr_1, …, thr_n)``."""
        return tuple(self._thr)
