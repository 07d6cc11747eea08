"""First-class tenancy for the shared estate.

The paper's stakeholders — farmers, flood engineers, the public — share
one cloud; this package makes *who is asking* a fact every layer acts
on, and a total one: a request, session or launch that names nobody is
the ``default`` tenant's, on the same lanes, buckets and ledger rows as
anyone else's.

* :mod:`~repro.tenancy.context` — the ``Tenant`` header contract,
  :data:`DEFAULT_TENANT`, and Jain's fairness index;
* :mod:`~repro.tenancy.registry` — :class:`TenantRegistry` /
  :class:`TenantSpec`: weights, quotas, boundary policy, service
  accounting;
* :mod:`~repro.tenancy.ratelimit` — the deterministic token-bucket
  :class:`RateLimiter` behind the /v1 429 path.

Every dispatcher, router and REST api holds a registry from
construction — one that knows only ``default`` until specs arrive.  A
limiter is something an estate installs; an identity is not.
"""

from repro.tenancy.context import (DEFAULT_TENANT, TENANT_HEADER,
                                   jain_index, valid_tenant_id)
from repro.tenancy.ratelimit import RateDecision, RateLimiter, TokenBucket
from repro.tenancy.registry import TenantRegistry, TenantSpec

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_HEADER",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
    "RateLimiter",
    "RateDecision",
    "jain_index",
    "valid_tenant_id",
]
