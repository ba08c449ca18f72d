"""Tuple model for rank join evaluation.

A :class:`RankTuple` is one input tuple: a join-attribute value ``key``, a
base-score vector ``scores`` (the paper's ``b(τ)``), and an opaque payload of
attribute values.  A :class:`JoinResult` is one output tuple of a rank join
over ``n >= 2`` inputs — the binary join is ``n = 2``: it carries one
constituent per input, the concatenated score vector, and the aggregated
score ``S(b(τ1) ⊕ … ⊕ b(τn))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable


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
    """A join result ``τ = τ1 ⋈ … ⋈ τn``: one tuple per input in input
    order, the aggregated score ``S(b(τ1) ⊕ … ⊕ b(τn))`` and the
    concatenated score vector it was computed from."""

    tuples: tuple[RankTuple, ...]
    score: float
    scores: tuple[float, ...]

    @classmethod
    def combine(cls, tuples: tuple[RankTuple, ...], score: float) -> "JoinResult":
        """Build a result whose score vector concatenates the tuples' vectors."""
        return cls(tuples, score, tuple(s for tup in tuples for s in tup.scores))

    @property
    def left(self) -> RankTuple:
        """The first input's constituent."""
        return self.tuples[0]

    @property
    def right(self) -> RankTuple:
        """The last input's constituent."""
        return self.tuples[-1]

    @property
    def key(self) -> Hashable:
        """The first constituent's join-attribute value (the binary join's
        shared key)."""
        return self.tuples[0].key

    def merged_payload(self) -> dict:
        """Merge the dict payloads of all constituents, later inputs winning
        (used by pipelined plans)."""
        merged: dict = {}
        for tup in self.tuples:
            if isinstance(tup.payload, dict):
                merged.update(tup.payload)
        return merged
