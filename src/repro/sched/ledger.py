"""Global capacity and cloudburst accounting across control-plane shards.

With the scheduling plane sharded, no single Load Balancer sees the
whole estate any more — yet quota ("no more than X public vCPUs,
deployment-wide") and cloudburst state ("are we paying for public
capacity right now?") are global facts.  The :class:`CapacityLedger` is
the one shared book every shard writes its launches and retirements
into, so those decisions stay correct at any shard count.  It is the
only record of either fact: a Load Balancer keeps no burst state of its
own, and the router's ``cloudbursting`` reads :attr:`bursting`.

The ledger is advisory bookkeeping plus optional hard caps: with no
``capacity`` configured, :meth:`admit` always says yes and the ledger
only observes; with caps set, a shard about to launch past the
deployment-wide budget (``location_budget``) or its tenant's quota
(``tenant_quota``) is refused before it ever reaches a provider.  Every
launch is some tenant's: one nobody claimed is the ``default`` tenant's.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT


class CapacityLedger:
    """Deployment-wide committed-capacity book shared by shard LBs.

    ``capacity`` maps a location label to its vCPU budget; locations
    without an entry are unbudgeted.  ``commit``/``release`` must be
    called symmetrically around an instance's lifetime (the Load
    Balancer commits on launch and releases through its one exit:
    scale-down, fault replacement, drain completion and boot failure).
    """

    def __init__(self, sim: Simulator,
                 capacity: Optional[Dict[str, int]] = None,
                 metrics=None):
        self.sim = sim
        self.capacity: Dict[str, int] = dict(capacity or {})
        self.metrics = metrics
        #: per-tenant vCPU caps, estate-wide (all locations), stated by
        #: :meth:`set_tenant_quota`; tenants without an entry are uncapped
        self.tenant_quotas: Dict[str, float] = {}
        self._committed: Dict[str, int] = {}
        self._tenant_committed: Dict[str, int] = {}
        self._public_nodes = 0
        self.bursting = False
        self.refusals = 0

    def set_tenant_quota(self, tenant: str,
                         vcpus: Optional[float]) -> None:
        """Cap (or uncap, with ``None``) one tenant's committed vCPUs."""
        if vcpus is None:
            self.tenant_quotas.pop(tenant, None)
        else:
            self.tenant_quotas[tenant] = vcpus

    # -- admission -----------------------------------------------------------

    def admit(self, location: str, vcpus: int,
              tenant: str = DEFAULT_TENANT) -> bool:
        """Would committing ``vcpus`` at ``location`` stay in budget?

        Checks the location budget first, then — when the tenant has a
        quota — that tenant's estate-wide vCPU cap.
        """
        budget = self.capacity.get(location)
        if budget is not None and \
                self._committed.get(location, 0) + vcpus > budget:
            self.refusals += 1
            refuse(self.sim, Cause.LOCATION_BUDGET, tenant=tenant,
                   location=location, vcpus=vcpus, budget=budget,
                   committed=self._committed.get(location, 0))
            return False
        quota = self.tenant_quotas.get(tenant)
        if quota is not None and \
                self._tenant_committed.get(tenant, 0) + vcpus > quota:
            self.refusals += 1
            refuse(self.sim, Cause.TENANT_QUOTA, tenant=tenant,
                   location=location, vcpus=vcpus, budget=quota,
                   committed=self._tenant_committed.get(tenant, 0))
            return False
        return True

    # -- accounting ----------------------------------------------------------

    def commit(self, location: str, vcpus: int, public: bool = False,
               tenant: str = DEFAULT_TENANT) -> None:
        """Record a launch at ``location``."""
        self._committed[location] = self._committed.get(location, 0) + vcpus
        self._count(f"commit.{location}", vcpus)
        self._tenant_committed[tenant] = \
            self._tenant_committed.get(tenant, 0) + vcpus
        if public:
            self._public_nodes += 1
            self._update_burst()

    def release(self, location: str, vcpus: int, public: bool = False,
                tenant: str = DEFAULT_TENANT) -> None:
        """Record a retirement (or failed boot) at ``location``."""
        self._committed[location] = max(
            0, self._committed.get(location, 0) - vcpus)
        self._count(f"release.{location}", vcpus)
        self._tenant_committed[tenant] = max(
            0, self._tenant_committed.get(tenant, 0) - vcpus)
        if public:
            self._public_nodes = max(0, self._public_nodes - 1)
            self._update_burst()

    def committed(self, location: str) -> int:
        """vCPUs currently committed at ``location``, across all shards."""
        return self._committed.get(location, 0)

    def committed_by_tenant(self) -> Dict[str, int]:
        """vCPUs currently committed per tenant (a copy)."""
        return dict(self._tenant_committed)

    def snapshot(self) -> Dict[str, int]:
        """Committed vCPUs per location (a copy)."""
        return dict(self._committed)

    # -- cloudburst state ----------------------------------------------------

    def _update_burst(self) -> None:
        bursting_now = self._public_nodes > 0
        if bursting_now and not self.bursting:
            self.bursting = True
            self._count("cloudburst.activations")
            obs_of(self.sim).events.emit("sched.cloudburst.enter")
        elif not bursting_now and self.bursting:
            self.bursting = False
            self._count("cloudburst.reversals")
            obs_of(self.sim).events.emit("sched.cloudburst.exit")

    def _count(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment(by)
