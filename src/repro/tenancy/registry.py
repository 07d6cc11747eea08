"""The tenant registry: who exists, their weights, quotas and fair share.

One :class:`TenantRegistry` per estate is the single source of truth
the layers consult: the scheduler asks :meth:`weight_of` when building
deficit-round-robin lanes, the capacity ledger is handed each spec's
``vcpu_quota`` when the tenant is configured, the rate limiter asks
:meth:`spec_of` for bucket parameters, and the admin console asks
:meth:`snapshot` for the ``tenants`` status section.

The registry also keeps the *service accounting* that Jain's index is
computed over: every dequeue the Dispatcher performs on behalf of a
tenant ticks :meth:`record_service`, so ``fairness()`` reports how
equally the scheduler actually divided its work, normalized by weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.tenancy.context import (DEFAULT_TENANT, jain_index,
                                   valid_tenant_id)


@dataclass
class TenantSpec:
    """Per-tenant policy: scheduling weight, rate limit, capacity quota.

    ``weight`` is the DRR quantum (relative service share within a
    priority class).  ``rate``/``burst`` parameterize the edge token
    bucket (``None`` → the limiter's defaults, which may themselves be
    unlimited).  ``vcpu_quota`` caps this tenant's committed vcpus in
    the capacity ledger (``None`` → no cap).
    """

    tenant_id: str
    weight: float = 1.0
    rate: Optional[float] = None
    burst: Optional[float] = None
    vcpu_quota: Optional[float] = None
    display_name: Optional[str] = None

    def __post_init__(self):
        if not valid_tenant_id(self.tenant_id):
            raise ValueError(f"invalid tenant id {self.tenant_id!r}")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive when set")
        if self.burst is not None and self.burst <= 0:
            raise ValueError("burst must be positive when set")
        if self.vcpu_quota is not None and self.vcpu_quota < 0:
            raise ValueError("vcpu quota must be non-negative")


class TenantRegistry:
    """Registered tenants plus the estate's fairness accounting.

    ``strict`` controls what happens to a request naming an *unknown*
    tenant at the API boundary: permissive (default) lets it through on
    default policy — the widening-the-circle stance, new participants
    are not locked out — while strict mode refuses it (403), for
    estates that provision tenants explicitly.  ``require_tenant``
    refuses a request that names nobody (401) instead of serving it as
    the default tenant.  Both are read at the boundary on every
    request, so every api sharing the registry changes with it.  The
    default tenant is always known.
    """

    def __init__(self, specs: Optional[Iterable[TenantSpec]] = None,
                 strict: bool = False):
        self.strict = strict
        self.require_tenant = False
        self._specs: Dict[str, TenantSpec] = {}
        #: work units served per tenant (dequeues, by default) — the
        #: series Jain's index is computed over.
        self.served: Dict[str, float] = {}
        self.register(TenantSpec(DEFAULT_TENANT))
        for spec in (specs or []):
            self.register(spec)

    # -- membership ----------------------------------------------------------

    def register(self, spec: TenantSpec) -> TenantSpec:
        """Add or replace a tenant's policy."""
        self._specs[spec.tenant_id] = spec
        return spec

    def known(self, tenant_id: str) -> bool:
        """Whether the tenant was explicitly registered."""
        return tenant_id in self._specs

    def spec_of(self, tenant_id: str) -> TenantSpec:
        """The tenant's policy; unknown tenants get default policy."""
        spec = self._specs.get(tenant_id)
        if spec is None:
            spec = TenantSpec(tenant_id)
        return spec

    def weight_of(self, tenant_id: str) -> float:
        """DRR quantum for the tenant (default weight when unknown)."""
        return self.spec_of(tenant_id).weight

    def tenants(self) -> List[str]:
        """Registered tenant ids, registration order."""
        return list(self._specs)

    # -- fairness accounting -------------------------------------------------

    def record_service(self, tenant_id: str) -> None:
        """Credit one unit of service to the tenant."""
        self.served[tenant_id] = self.served.get(tenant_id, 0.0) + 1.0

    def fairness(self) -> float:
        """Jain's index over weight-normalized service shares.

        Over every tenant that received any service.  Shares are
        ``served / weight`` so a weight-2 tenant legitimately served
        twice as much still scores 1.0.
        """
        return jain_index([served / self.weight_of(t)
                           for t, served in self.served.items()])

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant policy + accounting (the admin console's view)."""
        out: Dict[str, Dict[str, object]] = {}
        for tenant_id, spec in self._specs.items():
            out[tenant_id] = {
                "weight": spec.weight,
                "rate": spec.rate,
                "burst": spec.burst,
                "vcpu_quota": spec.vcpu_quota,
                "served": self.served.get(tenant_id, 0.0),
            }
        for tenant_id, served in self.served.items():
            if tenant_id not in out:
                out[tenant_id] = {"weight": self.weight_of(tenant_id),
                                  "rate": None, "burst": None,
                                  "vcpu_quota": None, "served": served}
        return out
