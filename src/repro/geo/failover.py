"""Whole-region failover: verdicts, session evacuation, re-adoption.

The :class:`FailoverCoordinator` is handed each region's
:class:`~repro.core.cell.Cell`, turns the cells' instance-level health
machinery into *region* verdicts and drives the failover sequence when
one flips to DOWN:

1. **detect** — every ``check_interval`` the coordinator folds each
   cell's :class:`~repro.broker.health.HealthMonitor` samples,
   serving-instance count and blob-store state into a
   :class:`~repro.geo.topology.RegionStatus` verdict and records it in
   the shared topology (which the router, replicator, election and
   REST guards all read);
2. **evacuate** — sessions homed in the lost region are detached and
   re-placed in survivors through
   :meth:`~repro.geo.routing.GeoRouter.replace` (stickiness loses to a
   DOWN home);
3. **re-adopt** — one surviving region (the nearest, fixed at
   detection time so two survivors never race for the same run) keeps
   sweeping its :class:`~repro.durable.recovery.RecoveryManager` for
   orphaned runs; the replicated journals let it resume work the lost
   region owned, losing at most one replication interval of progress
   (the RPO);
4. **restore** — when the region's storage and capacity come back the
   verdict heals, the topology flips back, and stickiness resumes.

Everything is measured: each failover produces a
:class:`FailoverReport` with detection, evacuation and restoration
timestamps, which ``benchmarks/bench_multi_region.py`` folds into the
end-to-end RTO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.sessions import SessionState
from repro.cloud.errors import StorageUnavailable
from repro.core.cell import Cell
from repro.geo.routing import GeoRouter
from repro.geo.topology import RegionStatus, RegionTopology
from repro.sim import Simulator


@dataclass
class FailoverReport:
    """One region loss, timestamped end to end."""

    region: str
    detected_at: float
    adopter: Optional[str] = None
    sessions_detached: int = 0
    sessions_replaced: int = 0
    #: when every evacuated session was ACTIVE again (None = pending)
    resettled_at: Optional[float] = None
    restored_at: Optional[float] = None
    runs_recovered: List[str] = field(default_factory=list)
    #: the evacuated sessions themselves (for resettlement tracking)
    evacuated: List[object] = field(default_factory=list)


class FailoverCoordinator:
    """Folds health signals into region verdicts and drives failover."""

    #: fraction of watched replicas that must be faulty before a region
    #: with working storage is declared DEGRADED
    DEGRADED_FRACTION = 0.5

    def __init__(self, sim: Simulator, topology: RegionTopology,
                 georouter: GeoRouter, sessions,
                 check_interval: float = 2.0):
        self.sim = sim
        self.topology = topology
        self.georouter = georouter
        self.sessions = sessions
        self.check_interval = check_interval
        self._cells: Dict[str, Cell] = {}
        self.reports: List[FailoverReport] = []
        self._started = False

    # -- wiring --------------------------------------------------------------

    def add_region(self, cell: Cell) -> None:
        """Watch and drive one region's cell."""
        if cell.region not in self.topology.regions():
            raise ValueError(f"region {cell.region!r} not in topology")
        if cell.region in self._cells:
            raise ValueError(f"region {cell.region!r} already attached")
        self._cells[cell.region] = cell

    def start(self) -> "FailoverCoordinator":
        """Begin the verdict loop."""
        if self._started:
            return self
        self._started = True

        def loop():
            while True:
                yield self.check_interval
                self.step()

        self.sim.spawn(loop(), name="geo-failover")
        return self

    # -- verdicts ------------------------------------------------------------

    def verdict(self, region: str) -> RegionStatus:
        """This coordinator's current opinion of one region."""
        cell = self._cells[region]
        serving = sum(len(p.serving_instances()) for p in cell.providers)
        store_down = cell.store.faulted
        if store_down and serving == 0:
            return RegionStatus.DOWN
        if store_down or self._faulty_fraction(cell) >= self.DEGRADED_FRACTION:
            return RegionStatus.DEGRADED
        if serving == 0 and self.topology.status(region) is RegionStatus.DOWN:
            # storage healed but capacity hasn't rebooted yet: the
            # region is convalescing, not serving
            return RegionStatus.DEGRADED
        return RegionStatus.HEALTHY

    @staticmethod
    def _faulty_fraction(cell: Cell) -> float:
        watched = cell.monitor.watched()
        if not watched:
            return 0.0
        faulty = sum(1 for inst in watched
                     if cell.monitor.verdict(inst).is_fault)
        return faulty / len(watched)

    # -- the control loop ----------------------------------------------------

    def step(self) -> None:
        """One verdict round; drives failover/restore transitions."""
        for region in self._cells:
            verdict = self.verdict(region)
            current = self.topology.status(region)
            if verdict is RegionStatus.DOWN and current is not RegionStatus.DOWN:
                self._fail_over(region)
            elif verdict is not RegionStatus.DOWN \
                    and current is RegionStatus.DOWN \
                    and verdict is RegionStatus.HEALTHY:
                self._restore(region)
            elif current is not RegionStatus.DOWN:
                self.topology.mark(region, verdict)
        self._sweep_orphans()
        self._settle_reports()

    def _fail_over(self, region: str) -> None:
        self.topology.mark(region, RegionStatus.DOWN)
        report = FailoverReport(region=region, detected_at=self.sim.now)
        self.reports.append(report)
        # evacuate: every non-ended session homed here moves now
        doomed = [s for s in self.sessions.all()
                  if getattr(s, "region", None) == region
                  and s.state is not SessionState.ENDED]
        for session in doomed:
            if session.state is SessionState.ACTIVE:
                session.unassign()
        report.sessions_detached = len(doomed)
        report.evacuated = list(doomed)
        placed = self.georouter.replace(doomed)
        report.sessions_replaced = len(placed)
        # one survivor — the nearest at detection time — adopts the
        # lost region's durable runs from its replicated journals
        report.adopter = self.georouter.pick_region(region)

    def _restore(self, region: str) -> None:
        self.topology.mark(region, RegionStatus.HEALTHY)
        for report in reversed(self.reports):
            if report.region == region and report.restored_at is None:
                report.restored_at = self.sim.now
                break

    def _sweep_orphans(self) -> None:
        """Adopt orphaned runs in each downed region's designated survivor.

        ``RecoveryManager.recover_instance`` is idempotent per owner and
        itself waits out lease expiry + grace, so sweeping every tick is
        safe; only the designated adopter sweeps, so two survivors never
        both resurrect the same run.
        """
        for region in self._cells:
            if self.topology.status(region) is not RegionStatus.DOWN:
                continue
            report = self._open_report(region)
            if report is None or report.adopter not in self._cells:
                continue
            recovery = self._cells[report.adopter].recovery
            try:
                orphans = recovery.orphans()
            except StorageUnavailable:
                # the adopter was lost too: its replicated journals are
                # unreadable until it heals, so adoption waits for that
                continue
            for state in orphans:
                if state.run_id not in report.runs_recovered:
                    report.runs_recovered.append(state.run_id)
                recovery.recover_instance(state.owner,
                                          verdict="region-failover")

    def _open_report(self, region: str) -> Optional[FailoverReport]:
        for report in reversed(self.reports):
            if report.region == region and report.restored_at is None:
                return report
        return None

    def _settle_reports(self) -> None:
        """Stamp ``resettled_at`` once every evacuated session is placed."""
        for report in self.reports:
            if report.resettled_at is not None:
                continue
            if all(s.state is not SessionState.WAITING for s in report.evacuated):
                report.resettled_at = self.sim.now
