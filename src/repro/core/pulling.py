"""Pulling strategies: the second pluggable PBRJ component.

A strategy decides which input to read next.  It sees a small read-only view
of the operator (depths, exhaustion flags, and the bounding scheme's
per-input potentials).

* :class:`RoundRobin` — PBRJ_FR^RR's blind alternation.
* :class:`PotentialAdaptive` — the paper's PA strategy: pull the input with
  the largest potential, breaking ties toward the smallest depth and then the
  smallest index.  Paired with the corner bound (whose potential is ``thr_i``)
  this *is* HRJN*'s threshold-adaptive strategy; paired with FR*/aFR it is
  the PA strategy of FRPA / a-FRPA.

Strategies choose among ``n`` inputs: the operator tells its strategy how
many through :meth:`PullingStrategy.bind`; unbound, a strategy assumes the
binary join.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol


def side_labels(inputs: int) -> tuple[str, ...]:
    """Metric labels of an operator's inputs.

    ``left`` / ``right`` for a binary join (the names every dashboard and
    trace reader already keys on), the input index beyond two.
    """
    if inputs == 2:
        return ("left", "right")
    return tuple(str(index) for index in range(inputs))


class OperatorView(Protocol):
    """What a pulling strategy may observe about the running operator."""

    def depth(self, side: int) -> int: ...

    def is_exhausted(self, side: int) -> bool: ...

    def potential(self, side: int) -> float: ...


class PullingStrategy(ABC):
    """Chooses the next input to pull from."""

    name = "abstract"

    #: Number of inputs chosen among, installed by :meth:`bind`.
    _inputs = 2

    def bind(self, inputs: int) -> None:
        """Attach the operator's arity; called once, before the first pull."""
        self._inputs = inputs

    @abstractmethod
    def choose(self, view: OperatorView) -> int:
        """Return the index of the input to read; never an exhausted one."""

    def _available(self, view: OperatorView) -> list[int]:
        sides = [
            side for side in range(self._inputs) if not view.is_exhausted(side)
        ]
        if not sides:
            raise RuntimeError("choose() called with every input exhausted")
        return sides


class RoundRobin(PullingStrategy):
    """Strict rotation through the inputs, skipping exhausted ones."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last = -1  # so that the very first pull hits input 0

    def choose(self, view: OperatorView) -> int:
        available = self._available(view)
        inputs = self._inputs
        preferred = (self._last + 1) % inputs
        if preferred in available:
            side = preferred
        else:  # the next live input in rotation order
            side = min(available, key=lambda side: (side - preferred) % inputs)
        self._last = side
        return side


class PotentialAdaptive(PullingStrategy):
    """Pull the input with maximal potential (the paper's PA strategy).

    Tie-breaking follows Section 4.2.2: least depth first, then least index.
    """

    name = "potential-adaptive"

    def choose(self, view: OperatorView) -> int:
        # One pass, nothing allocated: this runs once per pull.  Scanning
        # in index order with strict comparisons leaves ties on the
        # smallest index; depths are read only on a potential tie.
        best = -1
        best_potential = best_depth = 0
        for side in range(self._inputs):
            if view.is_exhausted(side):
                continue
            potential = view.potential(side)
            if best < 0 or potential > best_potential:
                best, best_potential, best_depth = side, potential, None
            elif potential == best_potential:
                if best_depth is None:
                    best_depth = view.depth(best)
                depth = view.depth(side)
                if depth < best_depth:
                    best, best_depth = side, depth
        if best < 0:
            raise RuntimeError("choose() called with every input exhausted")
        return best


class FixedSequence(PullingStrategy):
    """Replay a predetermined pull sequence (testing / adversarial inputs).

    Once the sequence is exhausted, falls back to round-robin.  Useful for
    constructing the worst-case instances in the test suite.
    """

    name = "fixed-sequence"

    def __init__(self, sequence: list[int]) -> None:
        self._sequence = list(sequence)
        self._position = 0
        self._fallback = RoundRobin()

    def bind(self, inputs: int) -> None:
        super().bind(inputs)
        self._fallback.bind(inputs)

    def choose(self, view: OperatorView) -> int:
        available = self._available(view)
        while self._position < len(self._sequence):
            side = self._sequence[self._position]
            self._position += 1
            if side in available:
                return side
        return self._fallback.choose(view)
