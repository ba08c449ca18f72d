"""Tuple model for rank join evaluation.

A :class:`RankTuple` is one input tuple: a join-attribute value ``key``, a
base-score vector ``scores`` (the paper's ``b(τ)``), and an opaque payload of
attribute values.  A :class:`JoinResult` is one output tuple of a binary rank
join: it carries the two constituents, the concatenated score vector, and the
aggregated score ``S(b(τ1) ⊕ b(τ2))``; a :class:`MultiwayResult` is the same
for a chain of three or more inputs.  :func:`chain_result` picks between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable


@dataclass(frozen=True, slots=True)
class RankTuple:
    """An input tuple ``τ`` with join key and base scores ``b(τ)``."""

    key: Hashable
    scores: tuple[float, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        # Plain floats only: a numpy scalar would ride through every
        # scalar ``w * x`` of the query at several times the cost.
        scores = self.scores
        if type(scores) is tuple:
            for score in scores:
                if type(score) is not float:
                    break
            else:
                return
        object.__setattr__(self, "scores", tuple(float(s) for s in scores))

    @property
    def dimension(self) -> int:
        """Number of base scores ``e`` of this tuple."""
        return len(self.scores)


@dataclass(frozen=True, slots=True)
class JoinResult:
    """A join result ``τ = τ1 ⋈ τ2`` with its aggregated score."""

    left: RankTuple
    right: RankTuple
    score: float
    scores: tuple[float, ...] = field(default=())

    @classmethod
    def combine(cls, left: RankTuple, right: RankTuple, score: float) -> "JoinResult":
        """Build a result whose score vector concatenates the operand vectors."""
        return cls(left=left, right=right, score=score, scores=left.scores + right.scores)

    @property
    def key(self) -> Hashable:
        """The shared join-attribute value."""
        return self.left.key

    def merged_payload(self) -> dict:
        """Merge dict payloads of both sides (used by pipelined plans)."""
        merged: dict = {}
        for part in (self.left.payload, self.right.payload):
            if isinstance(part, dict):
                merged.update(part)
        return merged


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


def _pair(tuples: tuple[RankTuple, RankTuple], score: float) -> JoinResult:
    left, right = tuples
    return JoinResult(left, right, score, left.scores + right.scores)


def chain_result(arity: int) -> Callable[[tuple[RankTuple, ...], float], Any]:
    """The result constructor of an ``arity``-input join, called as
    ``build(tuples, score)`` with one tuple per input in input order: a
    :class:`JoinResult` for two inputs, a :class:`MultiwayResult` for more."""
    return _pair if arity == 2 else MultiwayResult
