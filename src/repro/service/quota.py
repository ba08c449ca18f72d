"""Per-tenant admission quotas: token buckets with backpressure hints.

One heavy client must not starve the scheduler for everyone else.  Each
tenant (client id) owns a :class:`TokenBucket` refilled at ``rate``
tokens per second up to ``burst``; every submission spends one token.
An empty bucket rejects the submission *with a hint*: ``retry_after``
is the exact time until the next token exists, so clients back off
precisely instead of hammering the server.

:class:`TenantQuotas` manages the per-tenant buckets lazily (a tenant's
bucket is created full on first sight) and is wired into
:class:`~repro.service.service.QueryService` (and the fleet's
front-end) — admission control lives in front of any operator work, so
a throttled submission costs O(1).  Each rejection is counted once, as
``service_throttled_total{tenant}`` on the owner's registry (bound by
:meth:`TenantQuotas.observe`), and the ``throttled`` stats block reads
that counter.

Clocks are injectable throughout, so quota behaviour is testable under
virtual time.
"""

from __future__ import annotations

import time

from repro.errors import QuotaExceeded
from repro.obs.metrics import MetricRegistry


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``try_acquire`` returns ``0.0`` when a token was spent, or the
    seconds until one will exist (the ``retry_after`` backpressure hint).
    The bucket starts full, so a tenant's first ``burst`` submissions are
    always admitted.
    """

    def __init__(
        self, rate: float, burst: float, *, clock=time.monotonic
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive tokens/second")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()

    @property
    def tokens(self) -> float:
        """Tokens available right now (refill applied, nothing spent)."""
        self._refill()
        return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Spend ``tokens`` if available; else the seconds until possible."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now


class TenantQuotas:
    """Lazily-created per-tenant token buckets with uniform defaults.

    Parameters
    ----------
    rate:
        Sustained admissions per second each tenant is allowed.
    burst:
        Bucket capacity — the size of an admission burst a quiet tenant
        may spend at once.
    overrides:
        Optional ``{tenant: (rate, burst)}`` exceptions (e.g. a batch
        tenant with a bigger allowance).
    """

    def __init__(
        self,
        *,
        rate: float = 50.0,
        burst: float = 20.0,
        overrides: dict[str, tuple[float, float]] | None = None,
        clock=time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.overrides = dict(overrides or {})
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._metrics = MetricRegistry()

    def observe(self, metrics: MetricRegistry) -> None:
        """Count rejections on ``metrics``; called by the service or
        fleet that owns these quotas, before its first submit."""
        self._metrics = metrics

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            rate, burst = self.overrides.get(tenant, (self.rate, self.burst))
            bucket = TokenBucket(rate, burst, clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str) -> None:
        """Spend one of ``tenant``'s tokens or raise :class:`QuotaExceeded`.

        The raised error carries the precise ``retry_after`` hint; the
        rejection is counted in ``service_throttled_total{tenant}``.
        """
        retry_after = self.bucket(tenant).try_acquire()
        if retry_after > 0.0:
            self._metrics.counter("service_throttled_total", tenant=tenant).inc()
            raise QuotaExceeded(tenant, retry_after)

    def stats(self) -> dict:
        """JSON-friendly quota state (the ``quotas`` stats block)."""
        return {
            "rate": self.rate,
            "burst": self.burst,
            "tenants": {
                tenant: round(bucket.tokens, 3)
                for tenant, bucket in sorted(self._buckets.items())
            },
            "throttled": {
                labels["tenant"]: counter.value
                for _, labels, counter in self._metrics.metrics_named(
                    "service_throttled_total", kind="counter")
            },
        }
