"""The replicated, leader-decided capacity ledger.

One :class:`~repro.sched.ledger.CapacityLedger` per region, kept in
lockstep: **decisions** (admit) are made only by the elected leader
region's replica, **facts** (commit/release) fan out synchronously to
every reachable replica.  Losing any region therefore never loses the
book — the next leader's replica already holds every commit — and a
bounded no-leader window (see
:class:`~repro.geo.election.LeaderElection`) is the worst placement
pays for a leader-region loss: admissions are *refused* (``no_leader``),
never guessed, so capacity cannot be double-committed while it moves.

Fencing: admissions carry the ``(leader, term)`` grant they were
issued under; :meth:`GeoLedger.admit_as` rejects any grant that is not
the current one (``fenced``), so a deposed leader's in-flight decisions
die with its term.

Shard Load Balancers never see any of this: they hold a
:class:`RegionLedgerHandle` speaking local location labels, with the
same ``admit``/``commit``/``release``/``bursting`` surface a plain
:class:`CapacityLedger` has.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geo.election import LeaderElection
from repro.geo.topology import RegionStatus, RegionTopology, qualify
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.sched.ledger import CapacityLedger
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT


class GeoLedger:
    """Region-replicated capacity book with leader-only admission."""

    def __init__(self, sim: Simulator, election: LeaderElection,
                 topology: RegionTopology,
                 capacity: Optional[Dict[str, int]] = None,
                 tenant_quotas: Optional[Dict[str, float]] = None):
        self.sim = sim
        self.election = election
        self.topology = topology
        self.capacity: Dict[str, int] = dict(capacity or {})
        #: per-tenant estate-wide vCPU caps, enforced by whichever
        #: replica is leader (every replica carries the same quotas)
        self.tenant_quotas: Dict[str, float] = dict(tenant_quotas or {})
        self._replicas: Dict[str, CapacityLedger] = {}
        #: admissions refused because no leader held a live lease
        self.no_leader_refusals = 0
        #: commits observed past a location's budget (must stay 0)
        self.overcommits = 0

    # -- wiring --------------------------------------------------------------

    def add_region(self, region: str) -> CapacityLedger:
        """Create ``region``'s replica of the book."""
        if region not in self.topology.regions():
            raise ValueError(f"region {region!r} not in topology")
        if region in self._replicas:
            raise ValueError(f"region {region!r} already has a replica")
        # replicas carry no metrics registry: three books recording the
        # same fact would triple-count every commit
        replica = CapacityLedger(self.sim, capacity=self.capacity,
                                 tenant_quotas=self.tenant_quotas)
        self._replicas[region] = replica
        return replica

    def replica(self, region: str) -> CapacityLedger:
        """One region's copy of the book."""
        return self._replicas[region]

    def handle(self, region: str) -> "RegionLedgerHandle":
        """The ledger facade a region's shard LBs hold."""
        return RegionLedgerHandle(self, region)

    # -- grants --------------------------------------------------------------

    def grant(self) -> Optional[Tuple[str, int]]:
        """The current ``(leader, term)``, or ``None`` mid-election."""
        leader = self.election.leader()
        if leader is None or leader not in self._replicas:
            return None
        return leader, self.election.term

    # -- decisions (leader only) ---------------------------------------------

    def admit(self, location: str, vcpus: int,
              tenant: str = DEFAULT_TENANT) -> bool:
        """Leader-decided admission against the global budget.

        ``location`` is a global label (``region/local``).  With no
        leader the answer is *no* — a bounded stall, never a guess.
        """
        granted = self.grant()
        if granted is None:
            self.no_leader_refusals += 1
            refuse(self.sim, Cause.NO_LEADER, tenant=tenant,
                   region=location.partition("/")[0], location=location,
                   vcpus=vcpus)
            return False
        leader, term = granted
        return self.admit_as(leader, term, location, vcpus, tenant=tenant)

    def admit_as(self, owner: str, term: int, location: str,
                 vcpus: int, tenant: str = DEFAULT_TENANT) -> bool:
        """An admission issued under an explicit grant (fenced)."""
        current = self.grant()
        if current != (owner, term):
            refuse(self.sim, Cause.FENCED, tenant=tenant, region=owner,
                   term=term, leader=current[0] if current else None,
                   current_term=self.election.term)
            return False
        return self._replicas[owner].admit(location, vcpus, tenant=tenant)

    # -- facts (fan out everywhere) ------------------------------------------

    def commit(self, location: str, vcpus: int, public: bool = False,
               tenant: str = DEFAULT_TENANT) -> None:
        """Record a launch in every reachable replica."""
        budget = self.capacity.get(location)
        for _, replica in self._live_replicas():
            replica.commit(location, vcpus, public=public, tenant=tenant)
            if budget is not None and replica.committed(location) > budget:
                self.overcommits += 1
                obs_of(self.sim).events.emit(
                    "geo.ledger.overcommit", location=location,
                    committed=replica.committed(location), budget=budget)

    def release(self, location: str, vcpus: int, public: bool = False,
                tenant: str = DEFAULT_TENANT) -> None:
        """Record a retirement in every reachable replica."""
        for _, replica in self._live_replicas():
            replica.release(location, vcpus, public=public, tenant=tenant)

    def _live_replicas(self) -> List[Tuple[str, CapacityLedger]]:
        return [(region, replica)
                for region, replica in self._replicas.items()
                if self.topology.status(region) is not RegionStatus.DOWN]

    # -- queries -------------------------------------------------------------

    def committed(self, location: str) -> int:
        """Committed vCPUs at a global location (max across replicas)."""
        return max((replica.committed(location)
                    for _, replica in self._live_replicas()), default=0)

    def snapshot(self) -> Dict[str, int]:
        """Committed vCPUs per global location (replica maximum)."""
        merged: Dict[str, int] = {}
        for _, replica in self._live_replicas():
            for location, vcpus in replica.snapshot().items():
                merged[location] = max(merged.get(location, 0), vcpus)
        return merged

    def committed_by_tenant(self) -> Dict[str, int]:
        """Per-tenant committed vCPUs (replica maximum, estate-wide)."""
        merged: Dict[str, int] = {}
        for _, replica in self._live_replicas():
            for tenant, vcpus in replica.committed_by_tenant().items():
                merged[tenant] = max(merged.get(tenant, 0), vcpus)
        return merged

    @property
    def bursting(self) -> bool:
        """Whether any reachable replica records public capacity."""
        return any(replica.bursting for _, replica in self._live_replicas())

    @property
    def refusals(self) -> int:
        """Budget refusals (leader replicas) plus no-leader refusals."""
        books = sum(replica.refusals for replica in self._replicas.values())
        return books + self.no_leader_refusals


class RegionLedgerHandle:
    """One region's view of the :class:`GeoLedger`.

    Speaks the region's local location labels, exposing the same
    surface the shard Load Balancers expect of a
    :class:`~repro.sched.ledger.CapacityLedger`.
    """

    def __init__(self, geo: GeoLedger, region: str):
        self.geo = geo
        self.region = region

    def _global(self, location: str) -> str:
        return qualify(self.region, location)

    def admit(self, location: str, vcpus: int,
              tenant: str = DEFAULT_TENANT) -> bool:
        """Leader-decided admission for a local location."""
        return self.geo.admit(self._global(location), vcpus, tenant=tenant)

    def commit(self, location: str, vcpus: int, public: bool = False,
               tenant: str = DEFAULT_TENANT) -> None:
        """Record a local launch estate-wide."""
        self.geo.commit(self._global(location), vcpus, public=public,
                        tenant=tenant)

    def release(self, location: str, vcpus: int, public: bool = False,
                tenant: str = DEFAULT_TENANT) -> None:
        """Record a local retirement estate-wide."""
        self.geo.release(self._global(location), vcpus, public=public,
                         tenant=tenant)

    def committed(self, location: str) -> int:
        """Committed vCPUs at a local location."""
        return self.geo.committed(self._global(location))

    def committed_by_tenant(self) -> Dict[str, int]:
        """Per-tenant committed vCPUs (replica maximum, estate-wide)."""
        return self.geo.committed_by_tenant()

    @property
    def bursting(self) -> bool:
        """Estate-wide cloudburst state."""
        return self.geo.bursting

    @property
    def refusals(self) -> int:
        """Estate-wide refusal count."""
        return self.geo.refusals
