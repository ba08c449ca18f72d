"""Result cache for top-K answers, with prefix reuse.

Keyed by the canonical query fingerprint (relation content hashes +
scoring identity + join attributes, no plan — see
:meth:`repro.service.query.QuerySpec.fingerprint`), the cache stores the
longest top-K prefix computed so far for each distinct query.  A cached
top-K answers any ``k' <= K`` request (and any ``k'`` at all once the
join output is known exhausted) without touching an operator: zero
pulls, counted as a hit.  A ``k' > K`` request is a miss and computes
afresh; the cache holds answers, never an operator.

Eviction is LRU over a bounded number of entries, with an optional TTL
that only bounds how long an entry lives: the key holds every relation's
content fingerprint, so a reloaded relation with new rows is a new key and
can never be answered from an entry built on the old ones.

A second, *shared* tier (``shared_dir``) backs the in-memory cache with
one pickle file per fingerprint, written atomically — the cross-process
tier the serve fleet uses so a prefix computed by any worker answers the
same query on every other worker.

A shared-tier record is plain data: builtins only, no class and no
function, so reading one can run no code whoever wrote the file::

    (version, created_at, exhausted, rows)
    row = (score, scores, ((key, scores, payload), ...))   # one per result

It is pickled by a pickler that refuses anything but builtins and read
by an unpickler that resolves no global at all; a result whose key or
payload is not plain data is not published.  A reader takes a record only
in this shape (:func:`_well_formed`) and rebuilds the
:class:`~repro.core.tuples.JoinResult` / :class:`~repro.core.tuples.RankTuple`
objects from it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import time
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.tuples import JoinResult, RankTuple
from repro.obs import Observability

#: The shared-tier record layout this module writes and reads; a record
#: of any other version (or of none: an older dict record) is a miss.
_RECORD_VERSION = 1


class _PlainPickler(pickle.Pickler):
    """Pickles builtins only.  Every other object — one that would be
    written as a call to a class or function — is refused."""

    def reducer_override(self, obj):
        raise pickle.PicklingError(
            f"{type(obj).__qualname__} is not plain data"
        )


class _PlainUnpickler(pickle.Unpickler):
    """An unpickler that resolves no global: a record names none, so a
    file naming any could run code no worker wrote, and is refused."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(
            f"{module}.{name}: a shared-tier record names no global"
        )


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _floats(value) -> bool:
    return type(value) is tuple and all(type(v) is float for v in value)


def _well_formed(record) -> bool:
    """Is ``record`` a shared-tier record as :meth:`ResultCache._shared_store`
    writes it (and so safe to serve from)?  Anything else — another
    version, a non-finite score, a row or constituent of the wrong
    arity — is a miss for the caller."""
    return (
        type(record) is tuple and len(record) == 4
        and type(record[0]) is int and record[0] == _RECORD_VERSION
        and _finite(record[1]) and type(record[2]) is bool
        and type(record[3]) is tuple
        and all(type(row) is tuple and len(row) == 3
                and _finite(row[0]) and _floats(row[1])
                and type(row[2]) is tuple and row[2]
                and all(type(t) is tuple and len(t) == 3 and _floats(t[1])
                        for t in row[2])
                for row in record[3])
    )


def _record(entry: CacheEntry) -> tuple:
    """``entry``'s prefix as a shared-tier record, stamped now."""
    return (
        _RECORD_VERSION,
        # Wall clock, not the injectable monotonic clock: shared entries
        # outlive this process and must expire on a clock every worker
        # agrees on.
        time.time(),
        entry.exhausted,
        tuple(
            (float(r.score), r.scores,
             tuple((t.key, t.scores, t.payload) for t in r.tuples))
            for r in entry.results
        ),
    )


def _results(rows: tuple) -> list:
    """The join results a well-formed record's ``rows`` describe."""
    return [
        JoinResult(
            tuple(RankTuple(key, scores, payload)
                  for key, scores, payload in constituents),
            score,
            scores,
        )
        for score, scores, constituents in rows
    ]


@dataclass
class CacheEntry:
    """The retained answer prefix for one query."""

    results: list = field(default_factory=list)
    exhausted: bool = False
    created_at: float = 0.0

    def covers(self, k: int) -> bool:
        return self.exhausted or len(self.results) >= k


class ResultCache:
    """LRU + TTL cache of top-K prefixes keyed by query fingerprint.

    A memory-only cache takes any hashable key (a fleet's front-end keys
    its answers by the request); the shared tier names a file by the key,
    a fingerprint string."""

    def __init__(
        self,
        *,
        capacity: int = 128,
        ttl: float | None = None,
        shared_dir: str | os.PathLike | None = None,
        obs: Observability | None = None,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if ttl is not None and not (_finite(ttl) and ttl > 0):
            raise ValueError(f"ttl must be None or a finite number of seconds > 0, got {ttl!r}")
        self.capacity = capacity
        self.ttl = ttl
        self.shared_dir = Path(shared_dir) if shared_dir is not None else None
        if self.shared_dir is not None:
            self.shared_dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        # Default to an enabled exporter-less pipeline so hit/miss/eviction
        # counters (and therefore stats()/hit_rate()) work standalone.
        self._obs = obs if obs is not None else Observability()
        metrics = self._obs.metrics
        self._m_hits = metrics.counter("service_cache_hits_total")
        self._m_misses = metrics.counter("service_cache_misses_total")
        self._m_evictions = metrics.counter("service_cache_evictions_total")
        self._m_expirations = metrics.counter("service_cache_expirations_total")
        self._m_size = metrics.gauge("service_cache_size")
        self._m_shared_hits = metrics.counter("service_cache_shared_hits_total")
        self._m_shared_stores = metrics.counter("service_cache_shared_stores_total")

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, k: int) -> list | None:
        """The cached top-``k`` if fully answerable, else None.

        Counts exactly one hit or one miss per call and refreshes LRU
        recency on hits.
        """
        entry = self._fresh_entry(key)
        if entry is not None and entry.covers(k):
            self._entries.move_to_end(key)
            self._m_hits.inc()
            return list(entry.results[:k])
        # Memory miss: consult the shared cross-process tier.  A usable
        # prefix found there is promoted into this worker's memory entry.
        shared = self._shared_load(key)
        if shared is not None and (
            shared.exhausted or len(shared.results) >= k
        ):
            if entry is None:
                entry = CacheEntry(created_at=self._clock())
                self._entries[key] = entry
            if len(shared.results) > len(entry.results):
                entry.results = list(shared.results)
            entry.exhausted = entry.exhausted or shared.exhausted
            self._entries.move_to_end(key)
            self._trim()
            self._m_shared_hits.inc()
            self._m_hits.inc()
            return list(entry.results[:k])
        self._m_misses.inc()
        return None

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(self, key: Hashable, results: list, *, exhausted: bool = False) -> None:
        """Retain ``results`` for ``key`` if they improve on what is held.

        A shorter prefix never overwrites a longer one (a concurrent
        ``k' < K`` session finishing late must not shrink the entry).
        """
        now = self._clock()
        entry = self._fresh_entry(key)
        if entry is None:
            entry = CacheEntry(created_at=now)
            self._entries[key] = entry
        if len(results) > len(entry.results) or exhausted:
            entry.results = list(results)
            entry.exhausted = entry.exhausted or exhausted
        self._entries.move_to_end(key)
        self._trim()
        self._shared_store(key, entry)

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._m_evictions.inc()
        self._m_size.set(len(self._entries))

    def invalidate(self, key: Hashable) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()
        self._m_size.set(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "ttl": self.ttl,
            "hits": self._m_hits.value,
            "misses": self._m_misses.value,
            "evictions": self._m_evictions.value,
            "expirations": self._m_expirations.value,
            "hit_rate": self.hit_rate(),
            "shared_dir": str(self.shared_dir) if self.shared_dir else None,
            "shared_hits": self._m_shared_hits.value,
            "shared_stores": self._m_shared_stores.value,
        }

    def hit_rate(self) -> float:
        total = self._m_hits.value + self._m_misses.value
        return self._m_hits.value / total if total else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fresh_entry(self, key: Hashable) -> CacheEntry | None:
        """The entry for ``key`` after TTL expiry, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self.ttl is not None and self._clock() - entry.created_at > self.ttl:
            del self._entries[key]
            self._m_expirations.inc()
            self._m_size.set(len(self._entries))
            return None
        return entry

    # ------------------------------------------------------------------
    # Shared tier
    # ------------------------------------------------------------------
    def _shared_path(self, key: str) -> Path:
        return self.shared_dir / f"{key}.pkl"

    def _shared_record(self, key: str) -> tuple | None:
        """The shared tier's record for ``key`` (best effort).

        Missing, truncated (a concurrent writer died mid-``os.replace``
        is impossible, but a corrupt disk is not), foreign, or expired
        files all read as a clean miss — the shared tier only ever
        accelerates.  Unpickling resolves no global, so a file naming one
        runs nothing and is a miss too; a record is taken only in the
        shape :meth:`_shared_store` writes (:func:`_well_formed`).
        """
        if self.shared_dir is None:
            return None
        path = self._shared_path(key)
        try:
            record = _PlainUnpickler(io.BytesIO(path.read_bytes())).load()
        except Exception:  # noqa: BLE001 - any unreadable file is a miss
            return None
        if not _well_formed(record):
            return None
        created_at = record[1]
        if self.ttl is not None and created_at:
            if time.time() - created_at > self.ttl:
                with contextlib.suppress(OSError):
                    path.unlink()
                return None
        return record

    def _shared_load(self, key: str) -> CacheEntry | None:
        """The shared tier's entry for ``key``, its results rebuilt."""
        record = self._shared_record(key)
        if record is None:
            return None
        _, created_at, exhausted, rows = record
        return CacheEntry(results=_results(rows), exhausted=exhausted,
                          created_at=created_at)

    def _shared_store(self, key: str, entry: CacheEntry) -> None:
        """Write ``entry``'s prefix through to the shared tier if longer.

        Atomic publish: write the record to a pid-suffixed temp file, then
        ``os.replace`` — concurrent workers racing on the same key each
        publish a complete file and last-writer-wins is safe because the
        check below only lets a strictly-improving prefix overwrite.  The
        check reads the record as it lies, rebuilding no result.
        """
        if self.shared_dir is None:
            return
        existing = self._shared_record(key)
        if existing is not None:
            _, _, exhausted, rows = existing
            if len(rows) >= len(entry.results) and exhausted >= entry.exhausted:
                return
        buffer = io.BytesIO()
        try:
            _PlainPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(_record(entry))
        except pickle.PicklingError:  # a key or payload that is not plain data
            return
        path = self._shared_path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            tmp.write_bytes(buffer.getbuffer())
            os.replace(tmp, path)
            self._m_shared_stores.inc()
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
