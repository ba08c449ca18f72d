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

from repro.obs.metrics import MetricRegistry


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
    #: Metric handles, installed by :meth:`observe`; None when unobserved.
    _choice_metrics: "MetricRegistry | None" = None
    _choice_op = ""
    _choice_counters: "tuple[dict, ...] | None" = None
    _choice_tallies: "tuple[dict, ...] | None" = None
    _tallied = False  # since the last flush

    def bind(self, inputs: int) -> None:
        """Attach the operator's arity; called once, before :meth:`observe`."""
        self._inputs = inputs

    @abstractmethod
    def choose(self, view: OperatorView) -> int:
        """Return the index of the input to read; never an exhausted one."""

    def observe(self, metrics: MetricRegistry, op: str) -> None:
        """Attach choice counters (``pull_choice_total{side, reason}``).

        ``reason`` says *why* the side was picked: ``alternation`` for
        round-robin, ``potential`` / ``only-available`` for the adaptive
        strategies, ``scripted`` / ``fallback`` for fixed sequences.
        """
        self._choice_metrics = metrics
        self._choice_op = op
        # Per-side dicts keyed by the (interned literal) reason string.
        # Choices tally into plain ints on the hot path; the operator
        # flushes them into real counters at get_next boundaries via
        # :meth:`flush_choices`, so per-pull cost is one dict update.
        self._choice_counters = tuple({} for _ in range(self._inputs))
        self._choice_tallies = tuple({} for _ in range(self._inputs))

    def _count_choice(self, side: int, reason: str, count: int = 1) -> None:
        if self._choice_metrics is None:
            return
        tally = self._choice_tallies[side]
        tally[reason] = tally.get(reason, 0) + count
        self._tallied = True

    def _counter(self, side: int, reason: str):
        """``pull_choice_total{side, reason}``, registered at first use."""
        by_reason = self._choice_counters[side]
        counter = by_reason.get(reason)
        if counter is None:
            counter = by_reason[reason] = self._choice_metrics.counter(
                "pull_choice_total", op=self._choice_op, strategy=self.name,
                side=side_labels(self._inputs)[side], reason=reason)
        return counter

    def flush_choices(self) -> None:
        """Drain tallied choices into ``pull_choice_total`` counters.

        Called by the operator when a ``get_next``/``try_next`` call
        returns, so the registry is exact at every external observation
        point (quantum boundaries, snapshots, final reads).
        """
        if not self._tallied:
            return
        self._tallied = False
        for side, tally in enumerate(self._choice_tallies):
            for reason, count in tally.items():
                self._counter(side, reason).inc(count)
            tally.clear()

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
            side, reason = preferred, "alternation"
        else:  # the next live input in rotation order
            side = min(available, key=lambda side: (side - preferred) % inputs)
            reason = "alternation" if len(available) > 1 else "only-available"
        self._last = side
        if self._choice_metrics is not None:  # inlined _count_choice
            tally = self._choice_tallies[side]
            tally[reason] = tally.get(reason, 0) + 1
            self._tallied = True
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
        live = 0
        tied = False  # another live input has the best's potential
        for side in range(self._inputs):
            if view.is_exhausted(side):
                continue
            live += 1
            potential = view.potential(side)
            if best < 0 or potential > best_potential:
                best, best_potential, best_depth = side, potential, None
                tied = False
            elif potential == best_potential:
                tied = True
                if best_depth is None:
                    best_depth = view.depth(best)
                depth = view.depth(side)
                if depth < best_depth:
                    best, best_depth = side, depth
        if best < 0:
            raise RuntimeError("choose() called with every input exhausted")
        if self._choice_metrics is not None:
            if live == 1:
                reason = "only-available"
            else:
                reason = "tie-break" if tied else "potential"
            tally = self._choice_tallies[best]  # inlined _count_choice
            tally[reason] = tally.get(reason, 0) + 1
            self._tallied = True
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
                self._count_choice(side, "scripted")
                return side
        side = self._fallback.choose(view)
        self._count_choice(side, "fallback")
        return side
