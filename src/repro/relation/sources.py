"""Tuple sources: the access layer rank join operators pull from.

The access model (Definition 2.1 of the paper) is sequential, single-pass,
in decreasing order of the score bound ``S̄``.  Sources expose ``has_next``/
``next`` plus depth and simulated-cost counters; the operator never rewinds.

* :func:`score_bound` / :func:`sorted_access` — the one definition of
  ``S̄`` and the one place a relation is put in that order.
* :class:`SortedScan` — an in-memory pre-sorted relation, the equivalent of
  the paper's clustered-index scan.
* :class:`StreamSource` — a single-pass wrapper over any iterator (e.g. a
  lazily generated network stream or another operator's output).
* :class:`VerifyingSource` — a decorator that asserts the decreasing-``S̄``
  contract as tuples flow by; used in tests and debugging.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import repeat

import numpy as np

from repro.core.tuples import RankTuple
from repro.errors import NotSortedError
from repro.relation.cost import AccessStats, CostModel


def score_bound(scoring, dims: Sequence[int], index: int, scores) -> float:
    """``S̄`` of one tuple of input ``index``: ``S`` on the full vector with
    1 substituted for every other input's coordinates.  This arithmetic —
    not a shortcut such as ``S(b) + missing`` — is canonical: sorted access
    orders by it and every bound compares against it."""
    before = sum(dims[:index])
    after = sum(dims[index + 1:])
    return scoring((1.0,) * before + tuple(scores) + (1.0,) * after)


def sorted_access(scoring, dims: Sequence[int], index: int, relation):
    """Definition 2.1's order for ``relation`` as input ``index``:
    ``(rows, order, bounds)`` — the relation's rows, its row ids in
    decreasing ``S̄``, and the ``S̄`` values in that order.  One exact
    ``batch`` pass over ``[1…1 | matrix | 1…1]`` (bit for bit
    :func:`score_bound` of each row) and a stable argsort of the negation —
    ties stay in relation order, the order
    ``sorted(key=score_bound, reverse=True)`` gives.  Every live operator
    keeps both arrays, one pair per query in flight, hence the narrow row
    ids."""
    rows, matrix = relation.scored()
    before = sum(dims[:index])
    padded = np.ones((len(rows), sum(dims)))
    padded[:, before:before + dims[index]] = matrix
    bounds = scoring.batch(padded)
    order = np.argsort(-bounds, kind="stable").astype(np.int32)
    return rows, order, bounds[order]


class TupleSource(ABC):
    """Sequential, single-pass access to one rank join input."""

    def __init__(self, dimension: int, cost_model: CostModel | None = None) -> None:
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        self.dimension = dimension
        self.cost_model = cost_model or CostModel()
        self.stats = AccessStats()

    @abstractmethod
    def has_next(self) -> bool:
        """True if another tuple is available."""

    @abstractmethod
    def _advance(self) -> RankTuple:
        """Produce the next tuple; only called when ``has_next()``."""

    def next(self) -> RankTuple | None:
        """Pull the next tuple, charging the cost model; None if exhausted."""
        if not self.has_next():
            return None
        self.stats.charge(self.cost_model)
        return self._advance()

    def next_scored(self) -> tuple[RankTuple, float | None] | None:
        """:meth:`next` paired with the tuple's ``S̄`` when the source
        carries it (a prepared :class:`SortedScan`); ``None`` in its place
        leaves the bound to compute it."""
        tup = self.next()
        return None if tup is None else (tup, None)

    @property
    def depth(self) -> int:
        """Number of tuples pulled so far."""
        return self.stats.pulls

    @property
    def cost(self) -> float:
        """Accumulated simulated I/O cost."""
        return self.stats.cost

    def __iter__(self) -> Iterator[RankTuple]:
        while True:
            tup = self.next()
            if tup is None:
                return
            yield tup


class SortedScan(TupleSource):
    """Sequential scan over in-memory tuples in decreasing ``S̄``.

    This models the paper's best-case access path (clustered index on the
    leading score expression).  ``tuples`` is either already in scan order
    or comes with ``order``, the row ids to visit; ``bounds`` are the ``S̄``
    values in scan order, handed out by :meth:`next_scored`.  All three
    come from :func:`sorted_access`; ``(tuple, S̄)`` pairs are materialised
    one :attr:`chunk` at a time, so a scan costs what it reads.  Wrap it
    in a :class:`VerifyingSource` to check the order as it is read.
    """

    #: Pairs materialised per refill — the only per-scan Python objects, and
    #: like the arrays they stay alive with a suspended operator.
    chunk = 64

    def __init__(
        self,
        tuples: Sequence[RankTuple],
        *,
        order: np.ndarray | None = None,
        bounds: np.ndarray | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        dimension = tuples[0].dimension if len(tuples) else 0
        super().__init__(dimension, cost_model)
        self._tuples, self._order, self._bounds = tuples, order, bounds
        self._size = len(tuples) if order is None else len(order)
        self._position = 0
        self._pairs: list[tuple[RankTuple, float | None]] = []  # live chunk
        self._base = 0  # scan position of the chunk's first pair

    def _rows(self, start: int, stop: int) -> Sequence[RankTuple]:
        """The tuples at scan positions ``start .. stop - 1``."""
        if self._order is None:
            return self._tuples[start:stop]
        tuples = self._tuples
        return [tuples[row] for row in self._order[start:stop].tolist()]

    def has_next(self) -> bool:
        return self._position < self._size

    def _advance(self) -> RankTuple:
        return self._pull()[0]

    def _pull(self) -> tuple[RankTuple, float | None]:
        offset = self._position - self._base
        if offset == len(self._pairs):
            start, stop = self._position, self._position + self.chunk
            bounds = self._bounds
            self._pairs = list(zip(
                self._rows(start, stop),
                repeat(None) if bounds is None else bounds[start:stop].tolist(),
            ))
            self._base, offset = start, 0
        self._position += 1
        return self._pairs[offset]

    def next_scored(self) -> tuple[RankTuple, float | None] | None:
        if self._position >= self._size:
            return None
        self.stats.charge(self.cost_model)
        return self._pull()

    def __len__(self) -> int:
        """Total relation size (not remaining)."""
        return self._size

    @property
    def remaining(self) -> int:
        return self._size - self._position


class StreamSource(TupleSource):
    """Single-pass source over an arbitrary iterator of tuples.

    Buffers one tuple ahead so ``has_next`` is cheap.  Used for network-style
    inputs and for feeding one operator's output into another (pipelines).
    """

    def __init__(
        self,
        iterable: Iterable[RankTuple],
        dimension: int,
        *,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(dimension, cost_model)
        self._iterator = iter(iterable)
        self._lookahead: RankTuple | None = None
        self._done = False

    def has_next(self) -> bool:
        if self._lookahead is not None:
            return True
        if self._done:
            return False
        try:
            self._lookahead = next(self._iterator)
        except StopIteration:
            self._done = True
            return False
        return True

    def _advance(self) -> RankTuple:
        assert self._lookahead is not None
        tup = self._lookahead
        self._lookahead = None
        return tup


class VerifyingSource(TupleSource):
    """Decorator asserting the decreasing-``S̄`` contract on the fly."""

    def __init__(
        self,
        inner: TupleSource,
        score_bound: Callable[[RankTuple], float],
    ) -> None:
        super().__init__(inner.dimension, CostModel.free())
        self._inner = inner
        self._score_bound = score_bound
        self._previous = float("inf")

    def has_next(self) -> bool:
        return self._inner.has_next()

    def _advance(self) -> RankTuple:
        tup = self._inner.next()
        assert tup is not None
        bound = self._score_bound(tup)
        if bound > self._previous + 1e-9:
            raise NotSortedError(
                f"out-of-order tuple: S̄={bound} after {self._previous}"
            )
        self._previous = bound
        return tup

    @property
    def depth(self) -> int:
        return self._inner.depth

    @property
    def cost(self) -> float:
        return self._inner.cost
