"""Result cache for top-K answers, with prefix reuse and extension.

Keyed by the canonical query fingerprint (relation content hashes +
scoring identity + plan shape — see
:meth:`repro.service.query.QuerySpec.fingerprint`), the cache stores the
longest top-K prefix computed so far for each distinct query:

* **Prefix reuse** — a cached top-K answers any ``k' <= K`` request (and
  any ``k'`` at all once the join output is known exhausted) without
  touching an operator: zero pulls, counted as a hit.
* **Prefix extension** — for ``k' > K`` the cache can hand back the
  *suspended operator* that produced the prefix (resumable ``top_k``
  retains all operator state), so only the ``k' - K`` marginal results
  cost new pulls.  The continuation is checked out exclusively; it is
  returned — with the longer prefix — when the extending session ends.

Eviction is LRU over a bounded number of entries, with an optional TTL so
long-lived servers do not serve stale answers after relation reloads.

A second, *shared* tier (``shared_dir``) backs the in-memory cache with
one pickle file per fingerprint, written atomically — the cross-process
tier the serve fleet uses so a prefix computed by any worker answers the
same query on every other worker.  Only the answer prefix travels through
the shared tier; suspended continuation operators stay memory-local to the
worker that built them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.tuples import JoinResult, RankTuple
from repro.obs import Observability

#: The only globals a shared-tier record names.  Unpickling any other one
#: could run code from a file no worker wrote, so it is refused.
_RECORD_CLASSES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in (JoinResult, RankTuple)
}


class _RecordUnpickler(pickle.Unpickler):
    """An unpickler that resolves the result classes and nothing else."""

    def find_class(self, module: str, name: str):
        try:
            return _RECORD_CLASSES[module, name]
        except KeyError:
            raise pickle.UnpicklingError(
                f"{module}.{name} is not a shared-tier record class"
            ) from None


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _well_formed(payload) -> bool:
    """Is ``payload`` a shared-tier record as :meth:`ResultCache._shared_store`
    writes it (and so safe to serve from)?  Each result is checked against
    this layout: a record of an older one fills the wrong slots, or leaves
    one unset, which raises here — a miss for the caller."""
    return (
        type(payload) is dict
        and type(payload.get("results")) is list
        and all(type(r) is JoinResult and type(r.tuples) is tuple
                and all(type(t) is RankTuple for t in r.tuples)
                and _finite(r.score) and type(r.scores) is tuple
                for r in payload["results"])
        and type(payload.get("exhausted")) is bool
        and _finite(payload.get("created_at"))
    )


@dataclass
class CacheEntry:
    """The retained answer prefix (and optional continuation) for one query."""

    results: list = field(default_factory=list)
    exhausted: bool = False
    operator: Any = None
    created_at: float = 0.0
    hits: int = 0

    def covers(self, k: int) -> bool:
        return self.exhausted or len(self.results) >= k


class ResultCache:
    """LRU + TTL cache of top-K prefixes keyed by query fingerprint."""

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
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
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
    def lookup(self, key: str, k: int) -> list | None:
        """The cached top-``k`` if fully answerable, else None.

        Counts exactly one hit or one miss per call and refreshes LRU
        recency on hits.
        """
        entry = self._fresh_entry(key)
        if entry is not None and entry.covers(k):
            entry.hits += 1
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
                # Any checked-in continuation is suspended at the *old*
                # shorter prefix; extending from it after adopting the
                # longer shared prefix would re-emit results it already
                # produced.  Drop it — correctness over resumability.
                entry.operator = None
            entry.exhausted = entry.exhausted or shared.exhausted
            entry.hits += 1
            self._entries.move_to_end(key)
            self._trim()
            self._m_shared_hits.inc()
            self._m_hits.inc()
            return list(entry.results[:k])
        self._m_misses.inc()
        return None

    def take_continuation(self, key: str) -> tuple[list, Any] | None:
        """Check out the suspended operator for prefix extension.

        Returns ``(prefix_results, operator)`` and removes the operator
        from the entry so concurrent sessions cannot share live operator
        state; the prefix results stay behind for ``k' <= K`` hits.  None
        when there is no entry or its continuation is already checked out.
        """
        entry = self._fresh_entry(key)
        if entry is None or entry.operator is None or entry.exhausted:
            return None
        operator = entry.operator
        entry.operator = None
        self._entries.move_to_end(key)
        return list(entry.results), operator

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(
        self,
        key: str,
        results: list,
        *,
        exhausted: bool = False,
        operator: Any = None,
    ) -> None:
        """Retain ``results`` for ``key`` if they improve on what is held.

        A shorter prefix never overwrites a longer one (a concurrent
        ``k' < K`` session finishing late must not shrink the entry);
        the continuation operator is (re)attached whenever the stored
        prefix is the one it produced.
        """
        now = self._clock()
        entry = self._fresh_entry(key)
        if entry is None:
            entry = CacheEntry(created_at=now)
            self._entries[key] = entry
        if len(results) > len(entry.results) or exhausted:
            entry.results = list(results)
            entry.exhausted = entry.exhausted or exhausted
            entry.operator = None if exhausted else operator
        elif entry.operator is None and operator is not None \
                and len(results) == len(entry.results) and not entry.exhausted:
            entry.operator = operator
        self._entries.move_to_end(key)
        self._trim()
        self._shared_store(key, entry)

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._m_evictions.inc()
        self._m_size.set(len(self._entries))

    def invalidate(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()
        self._m_size.set(0)

    def close(self) -> None:
        """Empty the cache (continuations included)."""
        self.clear()

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
    def _fresh_entry(self, key: str) -> CacheEntry | None:
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

    def _shared_load(self, key: str) -> CacheEntry | None:
        """Read the shared tier's entry for ``key`` (best effort).

        Missing, truncated (a concurrent writer died mid-``os.replace``
        is impossible, but a corrupt disk is not), foreign, or expired
        files all read as a clean miss — the shared tier only ever
        accelerates.  Unpickling resolves only the result classes, so a
        file naming any other global runs nothing and is a miss too.  A
        payload is taken only in the shape
        :meth:`_shared_store` writes: ``results`` a list of join results
        with finite scores, ``exhausted`` a bool, ``created_at`` a finite
        number.
        """
        if self.shared_dir is None:
            return None
        path = self._shared_path(key)
        try:
            payload = _RecordUnpickler(io.BytesIO(path.read_bytes())).load()
            if not _well_formed(payload):
                return None
        except Exception:  # noqa: BLE001 - any unreadable file is a miss
            return None
        entry = CacheEntry(
            results=payload["results"],
            exhausted=payload["exhausted"],
            created_at=payload["created_at"],
        )
        if self.ttl is not None and entry.created_at:
            if time.time() - entry.created_at > self.ttl:
                with contextlib.suppress(OSError):
                    path.unlink()
                return None
        return entry

    def _shared_store(self, key: str, entry: CacheEntry) -> None:
        """Write ``entry``'s prefix through to the shared tier if longer.

        Atomic publish: pickle to a pid-suffixed temp file, then
        ``os.replace`` — concurrent workers racing on the same key each
        publish a complete file and last-writer-wins is safe because the
        check below only lets a strictly-improving prefix overwrite.
        """
        if self.shared_dir is None:
            return
        existing = self._shared_load(key)
        if existing is not None and (
            len(existing.results) >= len(entry.results)
            and existing.exhausted >= entry.exhausted
        ):
            return
        path = self._shared_path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump({
                    "results": list(entry.results),
                    "exhausted": entry.exhausted,
                    # Wall clock, not the injectable monotonic clock:
                    # shared entries outlive this process and must expire
                    # on a clock every worker agrees on.
                    "created_at": time.time(),
                }, handle)
            os.replace(tmp, path)
            self._m_shared_stores.inc()
        except (OSError, pickle.PickleError):
            with contextlib.suppress(OSError):
                tmp.unlink()
