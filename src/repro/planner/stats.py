"""The planner's one input statistic: the exact join cardinality.

Counting ``|L ⋈ R|`` is a pass over every tuple of both inputs, so the
count is cached process-wide by the pair of
:meth:`~repro.relation.relation.Relation.fingerprint` values (content-
addressed: re-planning a query over the same relations costs a dict
lookup) and handed to the depth estimator instead of being recounted
there.
"""

from __future__ import annotations

from repro.plan.estimate import join_cardinality
from repro.relation.relation import Relation

#: Entries each planner cache keeps (this one and the depth-estimate cache
#: of :mod:`repro.planner.planner`), oldest out: a serving process sees an
#: unbounded stream of distinct relations and per-request weight vectors.
CACHE_LIMIT = 1024

_join_counts: dict[tuple[str, str], int] = {}


def remember(cache: dict, key, value) -> None:
    """Insert ``key``, evicting the oldest insertions past ``CACHE_LIMIT``."""
    cache[key] = value
    while len(cache) > CACHE_LIMIT:
        del cache[next(iter(cache))]


def join_count(left: Relation, right: Relation) -> int:
    """Exact ``|left ⋈ right|`` on the tuple keys, cached by content."""
    key = (left.fingerprint(), right.fingerprint())
    cached = _join_counts.get(key)
    if cached is None:
        cached = join_cardinality(left, right)
        remember(_join_counts, key, cached)
    return cached


def clear_stats_caches() -> None:
    """Drop the join-count cache (tests, memory pressure)."""
    _join_counts.clear()
