"""Orphan detection and run re-adoption.

When an executor instance dies, every run it owned becomes an *orphan*:
a journal with a STARTED record, no terminal record, and a lease that
will stop being renewed.  The :class:`RecoveryManager` closes the loop
the paper's Load Balancer opens — the LB replaces the instance; the
recovery manager replaces the *work*:

1. A fault verdict (``DEAD``/``WEDGED``/``BLACKHOLED``) arrives from
   the :class:`~repro.broker.health.HealthMonitor`.
2. The manager scans the journal store for in-flight runs owned by the
   condemned instance.
3. For each, it waits out the remaining lease (never adopt a run whose
   owner might still be making progress — that is how split-brain
   happens), re-checks that the run is still orphaned, and re-runs it
   on a replacement engine under the *same run id*.
4. The replacement engine's :func:`~repro.durable.state.begin` replays
   the journal first: completed stages seed its cache, the lease is
   re-acquired at a higher epoch (fencing the old owner), and execution
   continues from the first stage the journal cannot prove finished.

Replay is at-least-once — the in-flight stage may execute twice across
the crash — but *effects* are exactly-once because they are keyed by
content-addressed cache keys and applied only when absent (see
:mod:`repro.durable.ensemble`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cloud.errors import StorageUnavailable
from repro.durable import journal as j
from repro.durable.state import RunState, replay
from repro.obs.hub import obs_of
from repro.sim import Simulator


@dataclass
class RecoveryReport:
    """One completed (or attempted) re-adoption."""

    run_id: str
    instance_id: str
    verdict: str
    detected_at: float
    adopted_at: float = 0.0
    completed_at: float = 0.0
    ok: bool = False
    stages_replayed: int = 0
    recomputed: List[str] = field(default_factory=list)
    error: str = ""


class RecoveryManager:
    """Re-adopts orphaned journaled runs onto replacement executors.

    ``engine_factory`` builds a fresh engine for each adoption — a
    zero-arg callable returning anything whose
    ``run(workflow, parameters, run_id=...)`` returns a signal fired
    with the run's record, or ``None`` when it failed (a
    :class:`~repro.workflow.cloud.CloudWorkflowEngine`).
    Workflows must be registered by name so the manager can reconstruct
    the DAG the journal's SCHEDULED record refers to.
    """

    def __init__(self, sim: Simulator, store: j.JournalStore,
                 engine_factory: Optional[Callable[[], Any]] = None,
                 monitor=None):
        self.sim = sim
        self.store = store
        self.engine_factory = engine_factory
        self._workflows: Dict[str, Any] = {}
        self._condemned: set = set()
        self._adopting: set = set()
        self.reports: List[RecoveryReport] = []
        if monitor is not None:
            monitor.on_verdict(self._on_verdict)

    def register_workflow(self, workflow) -> None:
        """Make ``workflow`` adoptable (journals store only its name)."""
        self._workflows[workflow.name] = workflow

    # -- orphan scanning -----------------------------------------------------

    def scan(self) -> List[RunState]:
        """Replayed state of every journaled run, one per run id."""
        return [replay(self.store.open(run_id).records(), run_id=run_id)
                for run_id in self.store.run_ids()]

    def orphans(self) -> List[RunState]:
        """In-flight runs whose lease has lapsed — adoptable now."""
        return [s for s in self.scan() if s.orphaned_at(self.sim.now)]

    def owned_by(self, instance_id: str) -> List[RunState]:
        """In-flight runs whose journal names ``instance_id`` as owner."""
        return [s for s in self.scan()
                if s.in_flight and s.owner == instance_id]

    # -- verdict-driven recovery ---------------------------------------------

    def _on_verdict(self, instance, verdict) -> None:
        """HealthMonitor callback: fires every sample, so dedup here."""
        if not getattr(verdict, "is_fault", False):
            return
        if instance.instance_id in self._condemned:
            return
        self._condemned.add(instance.instance_id)
        self.sim.spawn(
            self._recover_instance(instance.instance_id, verdict.value),
            name=f"durable.recover.{instance.instance_id}")

    def recover_instance(self, instance_id: str,
                         verdict: str = "manual") -> None:
        """Manually condemn ``instance_id`` and recover its runs."""
        if instance_id in self._condemned:
            return
        self._condemned.add(instance_id)
        self.sim.spawn(self._recover_instance(instance_id, verdict),
                       name=f"durable.recover.{instance_id}")

    def _recover_instance(self, instance_id: str, verdict: str):
        detected = self.sim.now
        try:
            owned = self.owned_by(instance_id)
        except StorageUnavailable:
            # the journal store itself is gone (e.g. a whole-region
            # outage took the instance AND its blob store).  Nothing
            # can be adopted from here; un-condemn so a retry after the
            # store heals — or a surviving region working from its
            # replicated journals — can still recover these runs.
            self._condemned.discard(instance_id)
            return
        for state in owned:
            if state.run_id in self._adopting:
                continue
            self._adopting.add(state.run_id)
            report = RecoveryReport(run_id=state.run_id,
                                    instance_id=instance_id,
                                    verdict=verdict, detected_at=detected)
            self.reports.append(report)
            yield from self._adopt_when_safe(state, report)

    def _adopt_when_safe(self, state: RunState, report: RecoveryReport):
        span = obs_of(self.sim).tracer.start_span(
            "durable.recover", kind="recovery",
            attributes={"run_id": state.run_id,
                        "instance": report.instance_id,
                        "verdict": report.verdict})
        # Never adopt while the old owner's lease could still be live —
        # a blackholed executor is unreachable, not provably dead.
        lease = state.lease
        if lease is not None and lease.held_at(self.sim.now):
            yield (lease.expires - self.sim.now) + j.TAKEOVER_GRACE
        try:
            fresh = replay(self.store.open(state.run_id).records(),
                           run_id=state.run_id)
        except StorageUnavailable:
            # store faulted while we waited out the lease
            self._adopting.discard(state.run_id)
            report.error = "journal store unavailable"
            span.finish(error=report.error)
            return
        if not fresh.orphaned_at(self.sim.now):
            report.error = "no longer orphaned"
            span.finish()
            return
        workflow = self._workflows.get(fresh.workflow)
        if workflow is None or self.engine_factory is None:
            report.error = (f"cannot adopt: workflow "
                            f"{fresh.workflow!r} not registered"
                            if workflow is None else
                            "cannot adopt: no engine factory")
            span.finish(error=report.error)
            return
        report.adopted_at = self.sim.now
        report.stages_replayed = len(fresh.completed)
        engine = self.engine_factory()
        try:
            done = engine.run(workflow, fresh.parameters,
                              run_id=state.run_id)
        except j.LeaseError as err:
            report.error = f"lease refused: {err}"
            span.finish(error=report.error)
            return
        result = yield done
        report.completed_at = self.sim.now
        if result is not None:
            report.ok = True
            report.recomputed = list(result.recomputed())
        else:
            report.error = "re-run failed"
        span.set_attribute("recomputed", len(report.recomputed))
        span.finish(error=None if report.ok else report.error)

    # -- reporting -----------------------------------------------------------

    def recovered(self) -> List[RecoveryReport]:
        """Reports for adoptions that completed successfully."""
        return [r for r in self.reports if r.ok]
