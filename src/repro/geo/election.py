"""Leases-based leader election across regional journals.

The geo capacity ledger needs exactly one decision-maker at a time.
Rather than invent a consensus protocol — or a lease rule — the
election carries none of its own: every region's
:class:`~repro.durable.journal.JournalStore` holds an election journal
(run id ``geo/<CLUSTER>``), the coordinator takes, extends and reads the
lease through :class:`~repro.durable.journal.RunJournal` on every
reachable region's copy, and the estate's one lease rule
(:func:`~repro.durable.journal.take_lease`) decides each of them.  The
*merged* view — the lease with the highest ``(epoch, expires)`` across
reachable journals — is the cluster's truth, so a candidate campaigning
while the old leader's lease is still live anywhere is refused with the
journal's :class:`~repro.durable.journal.LeaseError`.

Fencing: every successful campaign advances a monotonic **term**
(never below any journal epoch it acquired).  Ledger writes carry the
term they were issued under; a leader that lost its region keeps its
old term, and its in-flight decisions are rejected (see
:class:`~repro.geo.ledger.GeoLedger`).

Bounded re-election: the leader renews at half-TTL; after a leader
region dies, its last renewal expires within ``ttl``, the takeover
grace adds :data:`ELECTION_GRACE`, and the next coordinator check
(every ``check_interval``) elects a survivor — so re-election lands
within ``ttl + ELECTION_GRACE + check_interval`` of the loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cloud.errors import StorageUnavailable
from repro.durable.journal import JournalStore, LeaseError, LeaseState, RunJournal
from repro.geo.topology import RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.sim import Simulator

#: The election's name, in its journals' run id and its events.
CLUSTER = "capacity-ledger"
#: Seconds past lease expiry before a takeover campaign starts (the
#: same idea as recovery's LEASE_GRACE: absorb clock-edge races).
ELECTION_GRACE = 0.5


class LeaderElection:
    """Elects one leader region via replicated journal leases."""

    def __init__(self, sim: Simulator, topology: RegionTopology,
                 journals: Dict[str, JournalStore],
                 ttl: float = 10.0, check_interval: float = 1.0):
        self.sim = sim
        self.topology = topology
        self.ttl = ttl
        self.check_interval = check_interval
        self._journals: Dict[str, RunJournal] = {}
        for region, store in journals.items():
            self.add_region(region, store)
        #: the monotonic fencing token ledger writes carry
        self.term = 0
        self.leader_region: Optional[str] = None
        #: (time, leader, term) per successful campaign
        self.elections: List[Tuple[float, str, int]] = []
        self._started = False

    # -- wiring --------------------------------------------------------------

    def add_region(self, region: str, store: JournalStore) -> None:
        """Seat ``region``: its copy of the election journal lives in
        ``store`` (seats vote in the order they were added)."""
        self._journals[region] = store.open_or_create(f"geo/{CLUSTER}")

    def start(self) -> "LeaderElection":
        """Run the first campaign now and keep checking forever."""
        if self._started:
            return self
        self._started = True
        self.step()

        def coordinator():
            while True:
                yield self.check_interval
                self.step()

        self.sim.spawn(coordinator(), name="geo-election")
        return self

    @property
    def reelection_bound(self) -> float:
        """Worst-case seconds from leader-region loss to a new leader."""
        return self.ttl + ELECTION_GRACE + self.check_interval

    # -- queries -------------------------------------------------------------

    def leader(self) -> Optional[str]:
        """The region holding a live lease right now (or ``None``).

        A holder whose region is DOWN does not count: it cannot be
        exercising leadership, and treating its grant as void the
        moment the verdict lands shrinks the split-brain surface to
        zero — at the price of refusing admissions until the lease
        lapses and a survivor campaigns.
        """
        lease = self._merged_lease()
        if lease is not None and lease.held_at(self.sim.now) \
                and self.topology.status(lease.owner) is not RegionStatus.DOWN:
            return lease.owner
        return None

    def _merged_lease(self) -> Optional[LeaseState]:
        best: Optional[LeaseState] = None
        for _, journal in self._reachable():
            try:
                lease = journal.lease()
            except StorageUnavailable:
                continue
            if lease is None:
                continue
            if best is None or (lease.epoch, lease.expires) > \
                    (best.epoch, best.expires):
                best = lease
        return best

    def _reachable(self) -> List[Tuple[str, RunJournal]]:
        return [(region, journal)
                for region, journal in self._journals.items()
                if self.topology.status(region) is not RegionStatus.DOWN]

    # -- the coordinator step ------------------------------------------------

    def step(self) -> Optional[str]:
        """One election check; returns the current leader (or None)."""
        now = self.sim.now
        lease = self._merged_lease()
        if lease is not None and lease.held_at(now):
            holder = lease.owner
            if self.topology.status(holder) is RegionStatus.DOWN:
                # the lease must lapse before anyone may take over —
                # this wait is exactly what bounds the no-leader window
                self.leader_region = None
                return None
            self.leader_region = holder
            if lease.expires - now <= self.ttl / 2.0:
                self._renew(holder)
            return holder
        if lease is not None and now < lease.expires + ELECTION_GRACE:
            self.leader_region = None
            return None
        candidate = self.topology.nearest_available()
        if candidate is None:
            self.leader_region = None
            return None
        return self._campaign(candidate)

    def _campaign(self, candidate: str) -> Optional[str]:
        epochs: List[int] = []
        for _, journal in self._reachable():
            try:
                epochs.append(journal.acquire(candidate, self.ttl))
            except (LeaseError, StorageUnavailable):
                continue
        if not epochs:
            self.leader_region = None
            return None
        self.term = max(self.term + 1, max(epochs))
        self.leader_region = candidate
        self.elections.append((self.sim.now, candidate, self.term))
        obs_of(self.sim).events.emit("geo.leader.elected",
                                     cluster=CLUSTER, leader=candidate,
                                     term=self.term)
        return candidate

    def _renew(self, holder: str) -> None:
        for _, journal in self._reachable():
            try:
                journal.renew(holder, self.ttl)
            except LeaseError:
                # a healed region's journal still shows a stale owner;
                # its lease there has expired, so re-acquiring converges
                # the site without disturbing the cluster term
                try:
                    journal.acquire(holder, self.ttl)
                except (LeaseError, StorageUnavailable):
                    continue
            except StorageUnavailable:
                continue
