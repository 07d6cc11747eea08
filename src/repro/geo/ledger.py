"""The leader-decided capacity ledger.

One capacity book for the whole estate (the scheduling plane's, see
:mod:`repro.sched.ledger`), keyed by global labels (``region/local``):
**decisions** (admit) are made only under the elected leader region's
grant, **facts** (commit/release) land in the one book whichever region
reports them.  There is no per-region copy to fall behind, so a region
that heals reads and decides from the same book as everyone else, and a
bounded no-leader window (see
:class:`~repro.geo.election.LeaderElection`) is the worst placement
pays for a leader-region loss: admissions are *refused* (``no_leader``),
never guessed, so capacity cannot be double-committed while leadership
moves.

Fencing: admissions carry the ``(leader, term)`` grant they were
issued under; :meth:`GeoLedger.admit_as` rejects any grant that is not
the current one (``fenced``), so a deposed leader's in-flight decisions
die with its term.

Shard Load Balancers never see any of this: they hold a
:class:`RegionLedgerHandle` speaking local location labels, with the
same ``admit``/``commit``/``release``/``bursting`` surface a
single-cell book has.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.geo.election import LeaderElection
from repro.geo.topology import qualify
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.sched.ledger import CapacityLedger
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT


class GeoLedger(CapacityLedger):
    """The estate's one capacity book, admitting only under a grant.

    ``capacity`` maps global labels to vCPU budgets.  The book counts
    nothing into a metrics registry: its committed vCPUs, refusals and
    overcommits are read off the book itself.
    """

    def __init__(self, sim: Simulator, election: LeaderElection,
                 capacity: Optional[Dict[str, int]] = None):
        super().__init__(sim, capacity=capacity)
        self.election = election
        #: admissions refused because no leader held a live lease
        #: (also counted in :attr:`refusals`)
        self.no_leader_refusals = 0
        #: commits observed past a location's budget (must stay 0)
        self.overcommits = 0

    def handle(self, region: str) -> "RegionLedgerHandle":
        """The ledger facade a region's shard LBs hold."""
        return RegionLedgerHandle(self, region)

    # -- grants --------------------------------------------------------------

    def grant(self) -> Optional[Tuple[str, int]]:
        """The current ``(leader, term)``, or ``None`` mid-election."""
        leader = self.election.leader()
        if leader is None:
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
            self.refusals += 1
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
        return super().admit(location, vcpus, tenant=tenant)

    # -- facts ---------------------------------------------------------------

    def commit(self, location: str, vcpus: int, public: bool = False,
               tenant: str = DEFAULT_TENANT) -> None:
        """Record a launch; one past the location's budget is counted."""
        super().commit(location, vcpus, public=public, tenant=tenant)
        budget = self.capacity.get(location)
        if budget is not None and self.committed(location) > budget:
            self.overcommits += 1
            obs_of(self.sim).events.emit(
                "geo.ledger.overcommit", location=location,
                committed=self.committed(location), budget=budget)


class RegionLedgerHandle:
    """One region's view of the :class:`GeoLedger`.

    Speaks the region's local location labels, exposing the same
    surface the shard Load Balancers expect of a single-cell book.
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

    @property
    def bursting(self) -> bool:
        """Estate-wide cloudburst state."""
        return self.geo.bursting
