"""Monotone scoring functions.

A scoring function ``S`` maps a concatenated base-score vector to a number
and must be **monotone**: ``S(x) <= S(y)`` whenever ``x_i <= y_i`` for all
``i``.  Monotonicity is what makes score bounds via 1-substitution valid.

Besides pointwise evaluation, the bounding schemes need the maximum of ``S``
over a cross product of two point sets (the paper's *cover bounds*,
``max S(c1 ⊕ c2)``): :meth:`ScoringFunction.max_combination`, in general
all pairs (the combinatorial cost the paper attributes to the FR bound).
Whether ``S`` decomposes is one method, :meth:`ScoringFunction.row_weights`:
the weights of a left-to-right weighted sum (:class:`SumScore`,
:class:`WeightedSum`), ``None`` otherwise.  The base class derives
everything additive from it: a row's *partial score* is its weighted sum
(:func:`repro.kernels.cover_corner_scores`), and the cross product runs over
partials on the kernel layer — mirroring the paper's compiled C++ constants.

A cross-product *operand* is anything with ``points`` and, under weights,
``partials`` and their maximum ``best``: a bulk, append-only set (the seen
columns of PBRJ_FR^RR) is a :class:`PreparedPoints` over a columnar
:class:`~repro.kernels.PointSet`, synced through its stamp; the small,
constantly mutated sets of FR* are list-native
(:class:`~repro.geometry.antichain.ScoredAntichain`).  PBRJ_FR^RR pays the
literal cross product (:meth:`ScoringFunction.max_prepared`) on every pull;
FR* asks :meth:`ScoringFunction.cover_max`, under weights the sum of the
operands' maxima, bit-identical to the cross product (DESIGN.md §5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from repro import kernels
from repro.kernels import PointSet
from repro.kernels.vectorized import column_sum

NEG_INF = float("-inf")


def _sum(terms) -> float:
    """Left-to-right float sum.  Builtin ``sum()`` compensates since
    Python 3.12 and would part from ``batch`` and the kernels' partials
    in the last ulp; this is the arithmetic all three share."""
    total = 0.0
    for term in terms:
        total += term
    return float(total)


class ScoringFunction(ABC):
    """Interface for monotone scoring functions over ``[0, 1]^e`` vectors."""

    @abstractmethod
    def __call__(self, vector: Sequence[float]) -> float:
        """Evaluate ``S`` on a full concatenated score vector."""

    def batch(self, vectors: np.ndarray) -> np.ndarray:
        """Evaluate ``S`` row-wise on an ``(n, e)`` array, **exactly**:
        ``batch(V)[i] == S(tuple(V[i]))`` bit for bit — sorted access
        orders by these values and the bounds compare against them.

        The default is the scalar loop, exact by definition; an override
        must repeat the scalar arithmetic in the scalar order (column at a
        time, left to right), never a reordered reduction.
        """
        rows = np.asarray(vectors, dtype=float).tolist()
        return np.array([self(tuple(row)) for row in rows], dtype=float)

    def row_weights(self, offset: int, width: int) -> tuple[float, ...] | None:
        """The weights ``S`` gives coordinates ``offset … offset+width-1`` of
        the concatenated vector when ``S`` is the left-to-right weighted sum
        ``Σ w_i x_i``, ``None`` (the default) otherwise.  Under weights a
        row's partial score — ``S`` of the row, zeros elsewhere — is its own
        weighted sum, since adding ``w · 0.0`` is exact."""
        return None

    def padded_batch(self, vectors: np.ndarray, offset: int, width: int) -> np.ndarray:
        """:meth:`batch` of ``vectors`` laid at coordinate ``offset`` of
        ``width``-wide rows, zeros elsewhere: ``S(0…0 ⊕ v ⊕ 0…0)``, what a
        row scores on its own within a concatenated vector.  Under
        :meth:`row_weights` the padding is not built: the bits are the same.
        """
        vectors = np.asarray(vectors, dtype=float)
        weights = self.row_weights(offset, vectors.shape[1])
        if weights is not None:
            return column_sum(vectors, weights)
        padded = np.zeros((len(vectors), width))
        padded[:, offset:offset + vectors.shape[1]] = vectors
        return self.batch(padded)

    def max_combination(
        self,
        left: Sequence[Sequence[float]],
        right: Sequence[Sequence[float]],
    ) -> float:
        """``max { S(c1 ⊕ c2) : c1 ∈ left, c2 ∈ right }``; ``-inf`` if empty.

        Either operand may hold 0-dimensional (empty) points, in which case
        the concatenation degenerates gracefully.  Under :meth:`row_weights`
        the full cross product runs over the rows' partial scores on the
        kernel layer (see module docstring); the separable identity is
        :meth:`cover_max`, over operands that carry their partials.
        """
        if not left or not right:
            return NEG_INF
        split = len(left[0])
        weights = self.row_weights(0, split)
        if weights is not None:
            return kernels.cross_product_max(
                kernels.cover_corner_scores(list(left), weights),
                kernels.cover_corner_scores(
                    list(right), self.row_weights(split, len(right[0]))
                ),
            )
        best = NEG_INF
        for c1 in left:
            prefix = tuple(c1)
            for c2 in right:
                value = self(prefix + tuple(c2))
                if value > best:
                    best = value
        return best

    # ------------------------------------------------------------------
    # Prepared point sets: cached representations for repeated cross
    # products.  The FR-family bounds evaluate max S(c1 ⊕ c2) over the same
    # slowly-changing sets on every pull; preparing a set once amortizes
    # the per-point preprocessing.  max_prepared keeps the cross product
    # itself (the cost the paper ascribes to FR) intact; cover_max is what
    # FR* calls and may skip it.
    # ------------------------------------------------------------------
    def prepare(self, source: PointSet, offset: int = 0) -> "PreparedPoints":
        """One cross-product operand over the externally maintained
        columnar ``source`` (e.g. a PBRJ score column, of known dimension),
        tracked through its stamp.  ``offset`` is the operand's starting
        coordinate within the concatenated score vector (0 for left-input
        sets, ``e_1`` for right-input sets): it selects the operand's
        :meth:`row_weights`."""
        return PreparedPoints(source, self.row_weights(offset, source.dimension))

    def max_prepared(self, left, right) -> float:
        """``max_combination`` over two operands; ``-inf`` if empty."""
        lefts, rights = left.partials, right.partials
        if lefts is None or rights is None:
            return self.max_combination(left.points, right.points)
        # Full cross product over cached partials — the combinatorial work
        # the paper ascribes to FR's cover bounds, kernel-backed constants.
        return kernels.cross_product_max(lefts, rights)

    def cover_max(self, *operands) -> float:
        """The value of :meth:`max_prepared` by the cheapest exact route:
        over operands with partials, any number of them, the left-to-right
        sum of their maxima — IEEE-754 addition is monotone in each
        argument, so ``max fl(fl(a + b) + c)…`` is that sum."""
        total = 0.0
        for operand in operands:
            best = operand.best
            if best is None:
                return self.max_prepared(*operands)
            total += best
        return total


class PreparedPoints:
    """A prepared operand: a view of an append-only columnar
    :class:`~repro.kernels.PointSet` that some other component appends to.

    With ``weights`` (an ``S`` with :meth:`~ScoringFunction.row_weights`)
    it carries a capacity-doubling buffer of per-point partial scores and
    their maximum, lazily synchronized with the source through its stamp:
    the rows appended since the last read extend the buffer (one batch
    :func:`repro.kernels.cover_corner_scores` call over the new slice).  A
    partial depends on its row alone: the bits of a from-scratch pass.
    Without weights :attr:`partials` and :attr:`best` are ``None``.
    """

    def __init__(self, source: PointSet, weights: tuple[float, ...] | None) -> None:
        self._source = source
        self._weights = weights
        self._buffer = np.empty(16, dtype=float)
        self._size = 0
        self._best = NEG_INF

    @property
    def points(self) -> list[tuple[float, ...]]:
        """The operand as canonical tuples (a cached view; do not mutate)."""
        return self._source.tuples()

    def __len__(self) -> int:
        return len(self._source)

    def _sync(self) -> None:
        size = self._source.stamp
        if size == self._size:
            return
        fresh = self._source.array[self._size: size]
        values = kernels.cover_corner_scores(fresh, self._weights)
        if size > len(self._buffer):
            self._buffer = np.resize(
                self._buffer, max(2 * len(self._buffer), size)
            )
        self._buffer[self._size: size] = values
        self._best = max(
            self._best, float(self._buffer[self._size: size].max())
        )
        self._size = size

    @property
    def partials(self):
        """Per-point partial scores, synced with the source (1-D view);
        ``None`` without weights."""
        if self._weights is None:
            return None
        self._sync()
        return self._buffer[: self._size]

    @property
    def best(self) -> float | None:
        """``max`` of :attr:`partials`; ``-inf`` on an empty operand,
        ``None`` without weights."""
        if self._weights is None:
            return None
        self._sync()
        return self._best


class SumScore(ScoringFunction):
    """``S(x) = Σ x_i`` — the function used throughout the paper's study."""

    def __call__(self, vector: Sequence[float]) -> float:
        return _sum(vector)

    def batch(self, vectors: np.ndarray) -> np.ndarray:
        return column_sum(np.asarray(vectors, dtype=float), None)

    def row_weights(self, offset: int, width: int) -> tuple[float, ...]:
        return (1.0,) * width  # 1.0 * x == x: the plain sum's bits


class WeightedSum(ScoringFunction):
    """``S(x) = Σ w_i x_i`` with non-negative weights (monotone)."""

    def __init__(self, weights: Sequence[float]) -> None:
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative for monotonicity")
        self.weights = tuple(float(w) for w in weights)

    def __call__(self, vector: Sequence[float]) -> float:
        if len(vector) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} coordinates, got {len(vector)}"
            )
        total = 0.0  # left to right, as _sum — inline, once per join result
        for w, x in zip(self.weights, vector):
            total += w * x
        return float(total)

    def batch(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape[1] != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} coordinates, got {vectors.shape[1]}"
            )
        return column_sum(vectors, self.weights)

    def row_weights(self, offset: int, width: int) -> tuple[float, ...]:
        return self.weights[offset:offset + width]


class AverageScore(ScoringFunction):
    """``S(x) = mean(x)`` — monotone rescaling of the sum."""

    def __call__(self, vector: Sequence[float]) -> float:
        if not vector:
            return 0.0
        return _sum(vector) / len(vector)

    def batch(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=float)
        return column_sum(vectors, None) / max(vectors.shape[1], 1)

    def padded_batch(self, vectors: np.ndarray, offset: int, width: int) -> np.ndarray:
        return column_sum(np.asarray(vectors, dtype=float), None) / max(width, 1)


class MinScore(ScoringFunction):
    """``S(x) = min(x)`` — monotone; the weakest-link aggregate."""

    def __call__(self, vector: Sequence[float]) -> float:
        if not vector:
            return 1.0
        return float(min(vector))

    def batch(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=float)
        if not vectors.shape[1]:
            return np.ones(len(vectors))
        return vectors.min(axis=1)


class ProductScore(ScoringFunction):
    """``S(x) = Π x_i`` — monotone on the non-negative unit cube."""

    def __call__(self, vector: Sequence[float]) -> float:
        result = 1.0
        for x in vector:
            if x < 0:
                raise ValueError("ProductScore requires non-negative coordinates")
            result *= x
        return float(result)

    def batch(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=float)
        if (vectors < 0).any():
            raise ValueError("ProductScore requires non-negative coordinates")
        result = np.ones(len(vectors))
        for column in vectors.T:
            result *= column
        return result


class CallableScore(ScoringFunction):
    """Wrap an arbitrary user-provided monotone function.

    The caller asserts monotonicity; a rank join instance refuses a
    function that fails :func:`check_monotone` at its dimensions.
    """

    def __init__(self, fn: Callable[[Sequence[float]], float], name: str = "custom") -> None:
        self._fn = fn
        self.name = name

    def __call__(self, vector: Sequence[float]) -> float:
        return float(self._fn(vector))


def check_monotone(
    scoring: ScoringFunction,
    dimension: int,
    *,
    trials: int = 200,
    seed: int = 0,
) -> bool:
    """Randomized monotonicity check: sample dominated pairs and compare."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        low = rng.random(dimension)
        high = np.minimum(low + rng.random(dimension) * (1 - low), 1.0)
        if scoring(tuple(low)) > scoring(tuple(high)) + 1e-12:
            return False
    return True


def scoring_fingerprint(scoring: ScoringFunction) -> str:
    """A stable identity string for a scoring function.

    Built from the class name plus every simple constructor parameter
    (numbers, strings, tuples; numpy arrays are flattened to floats).
    Scoring functions wrapping arbitrary callables cannot be fingerprinted
    stably, so they fall back to ``id()`` — each instance gets a private
    cache namespace rather than risking a false cache share.
    """
    params = []
    opaque = False
    for name, value in sorted(vars(scoring).items()):
        if isinstance(value, np.ndarray):
            value = tuple(float(v) for v in value.ravel())
        if isinstance(value, (list, tuple)):
            simple = all(isinstance(v, (int, float, str, bool)) for v in value)
            if simple:
                params.append((name, tuple(value)))
                continue
            opaque = True
        elif isinstance(value, (int, float, str, bool)) or value is None:
            params.append((name, value))
        elif callable(value):
            opaque = True
    identity = f"{type(scoring).__name__}:{params!r}"
    if opaque:
        identity += f":opaque@{id(scoring)}"
    return identity
