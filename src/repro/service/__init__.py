"""Concurrent rank-join query service.

This subsystem turns the library's incremental operators into a
multi-query serving layer:

* :class:`~repro.service.query.QuerySpec` — one top-K query over shared
  relations, with a canonical content fingerprint;
* :class:`~repro.service.session.QuerySession` — a suspendable execution
  advancing in bounded pull-quantum steps;
* :class:`~repro.service.cache.ResultCache` — LRU + TTL top-K prefix
  cache: ``k' <= K`` is answered with zero pulls, ``k' > K`` is a miss
  computed afresh;
* :class:`~repro.service.service.QueryService` — owns every session:
  admits it through the cache, steps the live ones round-robin under
  admission control, and retires each (count, cache store, listeners,
  operator released);
* :class:`~repro.service.server.RankJoinServer` and
  :class:`~repro.service.client.ServiceClient` — an asyncio JSON-lines
  protocol served by ``python -m repro serve``.

Quickstart (in-process)::

    from repro import QueryService, QuerySpec, random_instance

    instance = random_instance(n_left=500, n_right=500, e_left=2,
                               e_right=2, num_keys=50, k=10)
    service = QueryService(max_live=4)
    spec = QuerySpec(relations=(instance.left, instance.right), k=10)
    results = service.run_query(spec)        # computes
    results = service.run_query(spec)        # served from cache, 0 pulls
"""

from repro.service.cache import CacheEntry, ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import ServeFleet
from repro.core.scoring import scoring_fingerprint
from repro.service.query import QuerySpec
from repro.service.quota import TenantQuotas, TokenBucket
from repro.service.server import RankJoinServer
from repro.service.service import QueryService
from repro.service.session import (
    DEFAULT_QUANTUM,
    QuerySession,
    SessionState,
)
from repro.service.top import render_dashboard, run_top

__all__ = [
    "CacheEntry",
    "DEFAULT_QUANTUM",
    "QueryService",
    "QuerySession",
    "QuerySpec",
    "RankJoinServer",
    "ResultCache",
    "ServeFleet",
    "ServiceClient",
    "ServiceError",
    "SessionState",
    "TenantQuotas",
    "TokenBucket",
    "render_dashboard",
    "run_top",
    "scoring_fingerprint",
]
