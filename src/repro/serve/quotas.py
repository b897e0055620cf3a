"""Per-tenant token-bucket quotas keyed by the ``X-Tenant`` header.

Admission control (:mod:`repro.serve.admission`) protects the *server*;
quotas protect tenants from each other.  Each tenant draws query tokens
from its own :class:`TokenBucket` — ``rate`` tokens per second refill up
to a ``burst`` ceiling — so a tenant replaying a synthesis sweep at full
speed exhausts its own bucket (429 + ``Retry-After``) while every other
tenant keeps its full allotment.

Buckets are lazy (created on a tenant's first request) and the clock is
injectable, so tests drive time explicitly instead of sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import QuotaExceeded
from repro.service.cache import LRUCache

Clock = Callable[[], float]

#: Tenants the quota table keeps; past it the least recently seen is evicted.
MAX_TENANTS = 1024


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second up to ``burst``."""

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock")

    def __init__(self, rate: float, burst: float, clock: Clock = time.monotonic) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._updated = now

    @property
    def tokens(self) -> float:
        """Tokens available right now."""
        self._refill()
        return self._tokens

    def try_take(self, cost: float = 1.0) -> float:
        """Take ``cost`` tokens; return 0.0 on success, else seconds to wait.

        A ``cost`` above ``burst`` can never succeed outright; such
        requests are charged the full burst instead (they drain the bucket
        to zero) so oversized batches are throttled, not banned forever.
        """
        self._refill()
        charge = min(float(cost), self.burst)
        if self._tokens >= charge:
            self._tokens -= charge
            return 0.0
        return (charge - self._tokens) / self.rate


@dataclass
class _Tenant:
    """One tenant's bucket and its accounting."""

    bucket: TokenBucket
    granted: int = 0
    throttled: int = 0


class TenantQuotas:
    """Lazy per-tenant token buckets with throttle accounting.

    Each tenant's bucket and counters live in one record, in a table of at
    most :data:`MAX_TENANTS` that evicts the least recently seen tenant,
    so a stream of distinct ``X-Tenant`` values cannot grow the server
    without bound.  An evicted tenant that comes back starts over with a
    full bucket and zeroed counters, as it would under a new name.

    Parameters
    ----------
    rate:
        Queries/second each tenant may sustain.  ``None`` disables
        quotas entirely (every check passes).
    burst:
        Bucket capacity (defaults to ``2 * rate``, minimum 1).
    overrides:
        Optional ``{tenant: (rate, burst)}`` exceptions to the default.
    metrics:
        Registry receiving ``serve.quota.*`` counters.
    clock:
        Injectable time source (tests pass a fake).
    """

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        overrides: Optional[Dict[str, tuple]] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self._rate = rate
        self._burst = burst
        self._overrides = dict(overrides) if overrides else {}
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._tenants: LRUCache[str, _Tenant] = LRUCache(MAX_TENANTS)

    @property
    def enabled(self) -> bool:
        """True when a default rate (or any override) is configured."""
        return self._rate is not None or bool(self._overrides)

    def _record_for(self, tenant: str) -> Optional[_Tenant]:
        record = self._tenants.get(tenant)
        if record is not None:
            return record
        if tenant in self._overrides:
            rate, burst = self._overrides[tenant]
        elif self._rate is not None:
            rate = self._rate
            burst = self._burst if self._burst is not None else max(1.0, 2 * self._rate)
        else:
            return None
        record = _Tenant(TokenBucket(rate, burst, clock=self._clock))
        self._tenants.put(tenant, record)
        return record

    def check(self, tenant: str, cost: float = 1.0) -> None:
        """Charge ``tenant`` for ``cost`` queries or raise :class:`QuotaExceeded`."""
        record = self._record_for(tenant)
        if record is None:
            return
        wait = record.bucket.try_take(cost)
        if wait > 0.0:
            record.throttled += 1
            self._metrics.inc("serve.quota.throttled")
            raise QuotaExceeded(
                f"tenant {tenant!r} exceeded its quota "
                f"({record.bucket.rate:g} queries/s, burst {record.bucket.burst:g})",
                retry_after=wait,
            )
        record.granted += 1
        self._metrics.inc("serve.quota.granted")

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant accounting: granted / throttled / tokens remaining."""
        return {
            tenant: {
                "granted": float(record.granted),
                "throttled": float(record.throttled),
                "tokens": round(record.bucket.tokens, 3),
            }
            for tenant, record in sorted(self._tenants.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = f"rate={self._rate!r}" if self.enabled else "disabled"
        return f"TenantQuotas({state}, tenants={len(self._tenants)})"
