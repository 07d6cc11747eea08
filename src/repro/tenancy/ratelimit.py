"""Deterministic per-tenant token-bucket admission for the /v1 edge.

The classic throttling pattern, made simulation-honest: buckets refill
*lazily* from the simulator clock (``tokens += (now - stamp) * rate``
capped at ``burst``) instead of from a background timer, so admission
decisions are a pure function of the event history — replays are
bit-identical and no wall clock ever leaks in.

:class:`RateLimiter` keeps one :class:`TokenBucket` per tenant,
parameterized from the :class:`~repro.tenancy.registry.TenantRegistry`
(per-tenant ``rate``/``burst`` overriding the limiter defaults).  Every
check returns a :class:`RateDecision` that already knows how to render
itself as HTTP metadata: ``X-RateLimit-Limit`` / ``-Remaining`` /
``-Reset`` on every decision, plus ``Retry-After`` on a denial — the
contract :mod:`repro.services.rest` surfaces with a 429 RFC-7807
problem document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim import Simulator
from repro.tenancy.registry import TenantRegistry


class TokenBucket:
    """A lazily refilled token bucket on the simulation clock.

    ``rate`` tokens/second accrue up to ``burst``; the bucket starts
    full (a quiet tenant gets its full burst immediately).
    """

    def __init__(self, sim: Simulator, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate = float(rate)
        self.burst = float(burst)
        self._level = float(burst)
        self._stamp = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        if now > self._stamp:
            self._level = min(self.burst,
                              self._level + (now - self._stamp) * self.rate)
        self._stamp = now

    def level(self) -> float:
        """Tokens available right now."""
        self._refill()
        return self._level

    def try_take(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; ``False`` leaves the level."""
        self._refill()
        if self._level + 1e-12 >= cost:
            self._level -= cost
            return True
        return False

    def retry_after(self, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will have accrued."""
        self._refill()
        deficit = cost - self._level
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


@dataclass(frozen=True)
class RateDecision:
    """One admission verdict plus its HTTP surface.

    ``limit`` is the bucket burst (``None`` → this tenant is
    unlimited), ``remaining`` the post-decision token floor, ``reset``
    seconds until the bucket is full again, ``retry_after`` seconds
    until a unit request would pass (0 when allowed).
    """

    allowed: bool
    tenant: str
    limit: Optional[float] = None
    remaining: Optional[float] = None
    reset: Optional[float] = None
    retry_after: float = 0.0

    def headers(self) -> Dict[str, str]:
        """``X-RateLimit-*`` (always) and ``Retry-After`` (on denial)."""
        headers: Dict[str, str] = {}
        if self.limit is not None:
            headers["X-RateLimit-Limit"] = f"{self.limit:g}"
            headers["X-RateLimit-Remaining"] = \
                f"{max(0.0, math.floor(self.remaining or 0.0)):g}"
            headers["X-RateLimit-Reset"] = f"{self.reset or 0.0:g}"
        if not self.allowed:
            headers["Retry-After"] = f"{max(1.0, self.retry_after):g}"
        return headers


class RateLimiter:
    """Per-tenant token buckets with registry-sourced parameters.

    A tenant whose spec sets a rate is enforced at that rate (its burst
    defaults to ``max(1, rate)``); a tenant whose spec sets none is
    unlimited.
    """

    def __init__(self, sim: Simulator, registry: TenantRegistry,
                 metrics=None):
        self.sim = sim
        self.registry = registry
        self.metrics = metrics
        self._buckets: Dict[str, TokenBucket] = {}
        self.allowed = 0
        self.throttled = 0

    def _params(self, tenant_id: str):
        spec = self.registry.spec_of(tenant_id)
        if spec.rate is None:
            return None
        burst = spec.burst if spec.burst is not None else max(1.0, spec.rate)
        return spec.rate, burst

    def bucket(self, tenant_id: str) -> Optional[TokenBucket]:
        """The tenant's bucket (created on first use; ``None`` = unlimited)."""
        bucket = self._buckets.get(tenant_id)
        if bucket is None:
            params = self._params(tenant_id)
            if params is None:
                return None
            bucket = TokenBucket(self.sim, *params)
            self._buckets[tenant_id] = bucket
        return bucket

    def check(self, tenant_id: str, cost: float = 1.0) -> RateDecision:
        """Admit or throttle one request of ``cost`` tokens."""
        bucket = self.bucket(tenant_id)
        if bucket is None:
            self._allow(tenant_id)
            return RateDecision(allowed=True, tenant=tenant_id)
        ok = bucket.try_take(cost)
        remaining = bucket.level()
        reset = (bucket.burst - remaining) / bucket.rate
        if ok:
            self._allow(tenant_id)
            return RateDecision(allowed=True, tenant=tenant_id,
                                limit=bucket.burst, remaining=remaining,
                                reset=reset)
        self.throttled += 1
        return RateDecision(allowed=False, tenant=tenant_id,
                            limit=bucket.burst, remaining=remaining,
                            reset=reset,
                            retry_after=bucket.retry_after(cost))

    def fill(self, tenant_id: str) -> Optional[float]:
        """Current token level of a tenant's bucket (``None`` = unlimited)."""
        bucket = self.bucket(tenant_id)
        return None if bucket is None else bucket.level()

    def snapshot(self) -> Dict[str, object]:
        """Counters plus per-bucket fill (the admin console's view)."""
        return {
            "allowed": self.allowed,
            "throttled": self.throttled,
            "buckets": {tenant: {"fill": bucket.level(),
                                 "burst": bucket.burst,
                                 "rate": bucket.rate}
                        for tenant, bucket in self._buckets.items()},
        }

    def _allow(self, tenant: str) -> None:
        self.allowed += 1
        if self.metrics is not None:
            self.metrics.counter("allowed", tenant=tenant).increment()
