"""Relations and rank join problem instances.

A :class:`Relation` is a named bag of :class:`~repro.core.tuples.RankTuple`.
A :class:`RankJoinInstance` bundles the paper's 4-tuple ``(R1, R2, S, K)``:
it fixes the per-side score dimensionalities, orders each input by
decreasing score bound ``S̄`` (Definition 2.1's access model) through
:func:`~repro.relation.sources.sorted_access`, and hands out fresh
:class:`~repro.relation.sources.SortedScan` pairs so operators can be run
repeatedly on identical inputs.

A relation is a value, *prepared once*: its rows are a ``tuple`` fixed at
construction, so its float64 score matrix, its canonical tuple identities,
the integer codes of its join-key columns, the code space it shares with
the relation it was last joined to and the join structure of that link
(:meth:`Relation.link`) are built on first use and shared by every query
for the life of the object.  A server builds the views every query reads
when it is constructed (:func:`repro.service.server.prepare_relations`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.core.scoring import CallableScore, ScoringFunction, check_monotone
from repro.core.tuples import RankTuple
from repro.errors import InstanceError
from repro.relation.cost import CostModel
from repro.relation.sources import SortedScan, score_bound, sorted_access


def _canonical_payload(payload: Any) -> str:
    """A deterministic textual form of a tuple payload for hashing."""
    if payload is None:
        return ""
    if isinstance(payload, dict):
        items = sorted((str(k), repr(v)) for k, v in payload.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return repr(payload)


def tuple_identity(tup: RankTuple) -> tuple:
    """Canonical per-tuple identity (key, scores, payload) for tie order:
    content only, so every execution orders an exact-score tie the same
    way.  :meth:`Relation.identities` caches it per relation."""
    return (repr(tup.key), tup.scores, _canonical_payload(tup.payload))


#: Sentinel attribute name resolving to ``RankTuple.key`` (the binary rank
#: join's join column, which lives outside the payload dict).
KEY_ATTR = "@key"


def attr_value(tup: RankTuple, attr: str):
    """The value of join attribute ``attr`` on ``tup``: the tuple key for
    ``KEY_ATTR``, else the payload dict's entry (none is a malformed query)."""
    if attr == KEY_ATTR:
        return tup.key
    payload = tup.payload
    if isinstance(payload, dict) and attr in payload:
        return payload[attr]
    raise InstanceError(
        f"tuple {tup.key!r} has no join attribute {attr!r} "
        f"(payload keys: {sorted(payload) if isinstance(payload, dict) else 'none'})"
    )


#: ``(distinct value tuples, int code per row)`` of a join-key column.
KeyCodes = tuple[list[tuple], np.ndarray]


def encode_keys(values: Iterable[tuple]) -> KeyCodes:
    """``(distinct, codes)`` with ``distinct[codes[i]] == values[i]``,
    distinct values in first-appearance order."""
    code_of: dict[tuple, int] = {}
    codes = [code_of.setdefault(value, len(code_of)) for value in values]
    return list(code_of), np.array(codes, dtype=np.intp)


class Link(NamedTuple):
    """One link of a chain, seen from its lower relation: content only."""

    #: The surviving rows, grouped by join-key code (code order) and in row
    #: order inside a group; group ``g`` is ``rows[bounds[g]:bounds[g + 1]]``.
    rows: np.ndarray
    bounds: np.ndarray
    #: Per row of the upper relation, the group it joins (-1: none).
    parent_gids: np.ndarray


def _tuple_digest(identity: tuple) -> bytes:
    """The content digest of one :func:`tuple_identity`: join key,
    full-precision scores, payload."""
    key, scores, payload = identity
    text = "\x1f".join((key, ",".join(repr(float(s)) for s in scores), payload))
    return hashlib.sha256(text.encode()).digest()


class Relation:
    """A named, unordered collection of rank tuples of equal dimension.

    A value: its rows are fixed at construction, so every view derived
    from them is built on first use and kept for the life of the object.
    """

    def __init__(self, name: str, tuples: Iterable[RankTuple]) -> None:
        self.name = name
        self._tuples = tuple(tuples)
        dims = {t.dimension for t in self._tuples}
        if len(dims) > 1:
            raise InstanceError(
                f"relation {name!r} mixes score dimensions: {sorted(dims)}"
            )
        self.dimension = dims.pop() if dims else 0
        self._fingerprint: str | None = None
        self._scored: tuple[tuple[RankTuple, ...], np.ndarray] | None = None
        self._identities: list[tuple] | None = None
        self._key_codes: dict[tuple[str, ...], KeyCodes] = {}
        self._joint_codes: dict[tuple[str, ...], tuple] = {}
        self._links: dict[tuple[str, ...], tuple] = {}

    def __setstate__(self, state: dict) -> None:
        # A pickled numpy array comes back writeable: a copy of a relation
        # keeps its views, and its score matrix stays read-only.
        self.__dict__.update(state)
        if self._scored is not None:
            self._scored[1].flags.writeable = False

    @property
    def tuples(self) -> tuple[RankTuple, ...]:
        """The rows, in the order the relation was built from."""
        return self._tuples

    def scored(self) -> tuple[tuple[RankTuple, ...], np.ndarray]:
        """``(rows, matrix)``: :attr:`tuples` itself and its read-only
        float64 ``(n, e)`` score matrix, ``matrix[i] == rows[i].scores``,
        built on first use.  A score that is not a number in ``[0, 1]`` is
        refused here: NaN has no place in a sort order, and every bound
        takes 1 as a score's ceiling.
        """
        if self._scored is None:
            rows = self._tuples
            matrix = np.array([t.scores for t in rows], dtype=float)
            matrix = matrix.reshape(len(rows), self.dimension)
            # NaN fails both comparisons.
            bad = np.argwhere(~((matrix >= 0.0) & (matrix <= 1.0)))
            if len(bad):
                row, column = bad[0].tolist()
                raise InstanceError(
                    f"relation {self.name!r}: score {matrix[row, column]} "
                    f"outside [0, 1] at row {row}, column {column}"
                )
            matrix.flags.writeable = False
            self._scored = (rows, matrix)
        return self._scored

    def identities(self) -> list[tuple]:
        """:func:`tuple_identity` of every tuple, in row order; built on
        first use."""
        if self._identities is None:
            self._identities = [tuple_identity(t) for t in self._tuples]
        return self._identities

    def key_codes(self, attrs: tuple[str, ...]) -> KeyCodes:
        """:func:`encode_keys` of every row's :func:`attr_value` tuple over
        ``attrs``, aligned with :meth:`scored`; built per attribute tuple on
        first use."""
        if attrs not in self._key_codes:
            self._key_codes[attrs] = encode_keys(
                tuple([attr_value(tup, attr) for attr in attrs])
                for tup in self.scored()[0]
            )
        return self._key_codes[attrs]

    def joint_key_codes(self, other: "Relation", attrs: tuple[str, ...]
                        ) -> tuple[int, np.ndarray, np.ndarray]:
        """``(size, mine, theirs)``: both relations' :meth:`key_codes` in
        this one's code space (``size``: a value only ``other`` holds), kept
        for the newest ``other`` per ``attrs``."""
        (known, mine), (values, theirs) = self.key_codes(attrs), other.key_codes(attrs)
        cached = self._joint_codes.get(attrs)
        if cached is None or cached[0] is not theirs:
            index = {value: code for code, value in enumerate(known)}
            remap = np.array([index.get(value, len(known)) for value in values],
                             dtype=np.intp)
            cached = self._joint_codes[attrs] = (theirs, (len(known), mine, remap[theirs]))
        return cached[1]

    def link(self, parent: "Relation", attrs: tuple[str, ...],
             gids: np.ndarray | None = None) -> Link:
        """The join structure of this relation toward ``parent`` on ``attrs``.

        ``gids`` marks the rows that survive from below (``-1``: no partner
        there; ``None``: every row survives).  The survivors are grouped by
        their :meth:`key_codes` in code order, row order inside a group, and
        every ``parent`` row gets the group it joins.  Kept for the newest
        ``parent`` and ``gids`` per ``attrs``: a caller passes the
        ``parent_gids`` of the link below, the same array for as long as
        that link is kept.
        """
        joint = self.joint_key_codes(parent, attrs)
        cached = self._links.get(attrs)
        if cached is None or cached[0] is not joint or cached[1] is not gids:
            size, mine, theirs = joint
            rows = np.arange(len(mine)) if gids is None else np.flatnonzero(gids >= 0)
            rows = rows[np.argsort(mine[rows], kind="stable")]
            codes = mine[rows]
            heads = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]][:len(codes)])
            gid_of_code = np.full(size + 1, -1, dtype=np.intp)
            gid_of_code[codes[heads]] = np.arange(len(heads))
            link = Link(rows, np.append(heads, len(rows)), gid_of_code[theirs])
            cached = self._links[attrs] = (joint, gids, link)
        return cached[2]

    def fingerprint(self) -> str:
        """Stable content hash over the bag of (key, scores, payload).

        Order-insensitive: permuted-but-equal relations hash equal, and any
        change to a key, a score (at full float precision), or a payload
        changes the digest.  The relation *name* is deliberately excluded —
        two differently-named copies of the same data are the same content.
        Computed on first use; a server computes it when it is constructed
        (:func:`repro.service.server.prepare_relations`), so no query pays.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"e={self.dimension};n={len(self.tuples)};".encode())
            for tuple_digest in sorted(_tuple_digest(tuple_identity(t))
                                       for t in self._tuples):
                digest.update(tuple_digest)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @classmethod
    def from_arrays(
        cls,
        name: str,
        keys: Sequence[Any],
        scores: np.ndarray,
        payloads: Sequence[Any] | None = None,
    ) -> "Relation":
        """Build a relation from parallel arrays (the data-generator path)."""
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 2 or len(keys) != scores.shape[0]:
            raise InstanceError("keys and scores must be parallel (n, e) data")
        if payloads is not None and len(payloads) != len(keys):
            raise InstanceError("payloads must parallel keys")
        rows = []
        for index, (key, row) in enumerate(zip(keys, scores.tolist())):
            payload = payloads[index] if payloads is not None else None
            rows.append(RankTuple(key=key, scores=tuple(row), payload=payload))
        return cls(name, rows)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, n={len(self.tuples)}, e={self.dimension})"


class RankJoinInstance:
    """The paper's problem instance ``I = (R1, R2, S, K)``.

    Inputs are ordered once at construction — per side one
    ``(rows, order, bounds)`` triple, two compact arrays over the
    relation's rows; :meth:`scans` returns fresh single-pass
    sources over them, so the same instance can be evaluated by many
    operators under identical conditions.
    """

    def __init__(
        self,
        left: Relation,
        right: Relation,
        scoring: ScoringFunction,
        k: int,
        *,
        cost_model: CostModel | None = None,
        validate: bool = False,
    ) -> None:
        if k < 1:
            raise InstanceError("K must be positive")
        dimension = left.dimension + right.dimension
        if isinstance(scoring, CallableScore) and not check_monotone(scoring, dimension):
            raise InstanceError(
                f"scoring {scoring.name!r} is not monotone on [0, 1]^{dimension}")
        self.left = left
        self.right = right
        self.scoring = scoring
        self.k = k
        self.cost_model = cost_model or CostModel.clustered_index()
        self.dims = (left.dimension, right.dimension)
        self._access = [
            sorted_access(scoring, self.dims, side, relation)
            for side, relation in enumerate((left, right))
        ]
        self._sorted: list[list[RankTuple] | None] = [None, None]
        if validate:
            join_size = self.join_size()
            if k > join_size:
                raise InstanceError(
                    f"K={k} exceeds join size {join_size}; "
                    "Definition 2.1 requires K <= |R1 ⋈ R2|"
                )

    # ------------------------------------------------------------------
    def score_bound(self, side: int, scores: Sequence[float]) -> float:
        """``S̄`` of a tuple from ``side`` — 1-substitution for missing scores."""
        return score_bound(self.scoring, self.dims, side, scores)

    def sorted_tuples(self, side: int) -> list[RankTuple]:
        """The sorted input sequence for ``side`` (0 = left, 1 = right);
        materialised on first request, for callers that index into it."""
        if self._sorted[side] is None:
            rows, order, _ = self._access[side]
            self._sorted[side] = [rows[row] for row in order.tolist()]
        return self._sorted[side]

    def sorted_bounds(self, side: int) -> np.ndarray:
        """``S̄`` of each tuple of :meth:`sorted_tuples`, aligned with it."""
        return self._access[side][2]

    def access(self, side: int) -> tuple[tuple[RankTuple, ...], np.ndarray, np.ndarray]:
        """``side``'s ``(rows, order, bounds)`` as
        :func:`~repro.relation.sources.sorted_access` prepared them."""
        return self._access[side]

    def scans(self) -> tuple[SortedScan, SortedScan]:
        """Fresh single-pass sources over the two sorted inputs."""
        scans = tuple(
            SortedScan(rows, order=order, bounds=bounds, cost_model=self.cost_model)
            for rows, order, bounds in self._access
        )
        for scan, dimension in zip(scans, self.dims):
            scan.dimension = dimension  # an empty input keeps its side's width
        return scans

    # ------------------------------------------------------------------
    def join_size(self) -> int:
        """``|R1 ⋈ R2|`` via a hash join count (validation / oracle use)."""
        counts: dict[Any, int] = {}
        for tup in self.left.tuples:
            counts[tup.key] = counts.get(tup.key, 0) + 1
        return sum(counts.get(tup.key, 0) for tup in self.right.tuples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankJoinInstance({self.left.name} ⋈ {self.right.name}, "
            f"e={self.dims}, K={self.k})"
        )
