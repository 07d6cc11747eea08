"""Cloud-executed workflows: the estate engine.

Section VIII defines workflow nodes as "basic execution units (e.g.
executables, scripts, web services, etc.)".  The library
:class:`~repro.workflow.engine.WorkflowEngine` runs callables locally;
this module runs a workflow *against the deployment*: nodes marked as
service calls are dispatched to WPS endpoints over the simulated
network, so a composed experiment pays real queueing, shares the stage
key and cache semantics, and leaves the same provenance.

With a :class:`~repro.durable.journal.JournalStore` attached the engine
is *durable*: a run is begun, failed and finished by the run protocol
of :mod:`repro.durable.state`, each completed stage is journaled as a
CHECKPOINT, the lease is renewed by a heartbeat process, and an executor
crash (the hosting :class:`~repro.cloud.instance.Instance` failing)
leaves an orphaned journal that a
:class:`~repro.durable.recovery.RecoveryManager` can re-adopt on a
replacement executor — replaying completed stages from cache so only
the in-flight stage re-executes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.durable import journal as j
from repro.durable.state import begin, fail, finish
from repro.obs.context import SpanContext, inject_context
from repro.obs.hub import obs_of
from repro.services.transport import HttpRequest, HttpResponse, Network
from repro.sim import Interrupt, Signal, Simulator
from repro.workflow.dag import Workflow, WorkflowNode
from repro.workflow.engine import (
    RunRecord,
    StageRecord,
    _short_repr,
    stage_key,
)

_run_ids = itertools.count()


@dataclass(frozen=True)
class ServiceCall:
    """Marks a node as a WPS Execute against the live deployment.

    ``address_of`` resolves the endpoint at dispatch time (sessions
    migrate; reading the address late follows them);
    ``build_inputs(params, upstream)`` produces the Execute inputs.
    """

    process_id: str
    address_of: Callable[[], Optional[str]]
    build_inputs: Callable[[Dict[str, Any], Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class StageFailure:
    """Typed description of why a workflow stage failed.

    ``kind`` is one of ``"no-address"`` (the session the stage targeted
    migrated away and no endpoint resolves any more), ``"service-error"``
    (the call completed with refusal/timeout/non-2xx) or
    ``"executor-lost"`` (the hosting instance died or lost its lease
    mid-run).  Failed runs carry this on ``RunRecord.failure`` instead
    of letting a bare exception escape the engine.
    """

    node_id: str
    kind: str
    detail: str = ""

    def __str__(self) -> str:
        return f"stage {self.node_id!r} failed ({self.kind}): {self.detail}"


def service_node(node_id: str, call: ServiceCall,
                 depends_on=(), params_used=(),
                 description: str = "") -> WorkflowNode:
    """A :class:`WorkflowNode` whose execution is a web-service call."""
    return WorkflowNode(node_id=node_id, fn=lambda p, u: None,
                        depends_on=depends_on, params_used=params_used,
                        description=description or f"WPS {call.process_id}",
                        service_call=call)


class CloudWorkflowEngine:
    """Runs workflows whose nodes may be remote service calls.

    Execution happens inside the simulator (``run`` returns a signal
    fired with the :class:`RunRecord`), because service calls take
    simulated time.  Stage caching matches the library engine: replaying
    an identical workflow re-issues no service calls at all.

    Durable-execution knobs (all optional):

    * ``store`` — a :class:`~repro.durable.journal.JournalStore`; runs
      are journaled and leased.
    * ``executor`` — the :class:`~repro.cloud.instance.Instance` this
      engine runs on.  If it dies mid-run the runner is interrupted and
      the run becomes an orphan; while it is blackholed journal writes
      buffer locally (they cannot reach the store) and the lease is not
      renewed — so a healed executor that lost its lease gets *fenced*
      rather than scribbling over the adopter's records.
    * ``lease_ttl`` — lease duration; the heartbeat renews every third
      of it.
    * ``scheduler`` — a :class:`~repro.sched.router.ShardedRouter`;
      with one attached every non-cached service-call stage is admitted
      through the scheduling plane (``sched.submit`` span at workflow
      class).
    """

    def __init__(self, sim: Simulator, network: Network,
                 request_timeout: float = 600.0,
                 client=None, store=None, executor=None,
                 lease_ttl: float = 60.0,
                 scheduler=None):
        self.sim = sim
        self.network = network
        self.request_timeout = request_timeout
        #: optional shared ResilientClient; with one attached, stage
        #: dispatch rides the fabric (retry/breaker/admission) and uses
        #: the canonical v1 route, surviving mid-workflow crashes
        self.client = client
        self.scheduler = scheduler
        self.store = store
        self.executor = executor
        self.executor_id = (executor.instance_id if executor is not None
                            else "cwf-local")
        self.lease_ttl = lease_ttl
        self._cache: Dict[str, Any] = {}
        self._runs: list = []

    def runs(self) -> list:
        """Provenance of every run, oldest first."""
        return list(self._runs)

    def seed_cache(self, entries) -> int:
        """Pre-load ``(cache_key, output)`` pairs (journal replay)."""
        count = 0
        for key, output in entries:
            if key not in self._cache:
                self._cache[key] = output
                count += 1
        return count

    # -- executor state ------------------------------------------------------

    def _executor_gone(self) -> bool:
        return self.executor is not None and self.executor.is_gone

    def _executor_dark(self) -> bool:
        """Blackholed: alive, but nothing it sends leaves the NIC."""
        return self.executor is not None and self.executor.network_blackholed

    # -- run -----------------------------------------------------------------

    def run(self, workflow: Workflow,
            parameters: Optional[Dict[str, Any]] = None,
            parent: Optional[SpanContext] = None,
            run_id: Optional[str] = None) -> Signal:
        """Execute ``workflow``; returns a signal fired with the record.

        A failed service call (refused, timeout, non-2xx) or a resolver
        that yields no address fires the signal with ``None`` after
        recording partial provenance with a typed
        :class:`StageFailure` on ``record.failure`` (and a FAILED
        journal record when journaled).  Pass ``run_id`` to resume a
        journaled run under its original identity (recovery adoption).
        The run is always traced: pass ``parent`` (e.g. a session's
        trace context) to join an existing trace, else a fresh trace is
        started.  Stage spans propagate over the wire to the replicas
        the service calls land on.
        """
        workflow.validate()
        params = dict(parameters or {})
        adopting = run_id is not None
        record = RunRecord(run_id=run_id or f"cwf-{next(_run_ids):05d}",
                           workflow=workflow.name, parameters=params)
        done = self.sim.signal(f"workflow.{workflow.name}")
        tracer = obs_of(self.sim).tracer
        run_span = tracer.start_span(
            f"workflow.run {workflow.name}", parent=parent, kind="workflow",
            attributes={"run_id": record.run_id, "adopted": adopting})
        record.trace_id = run_span.trace_id

        journal = None
        journaled_stages: set = set()
        if self.store is not None:
            journal = self.store.open_or_create(record.run_id)
            prior = begin(journal, self.executor_id, self.lease_ttl,
                          workflow.name, params, adopting=adopting)
            journaled_stages = set(prior.completed)
            self.seed_cache(prior.cache_entries())

        flags = {"finished": False}

        def fail_stage(node_id: str, kind: str, detail: str,
                       stage_span) -> None:
            failure = StageFailure(node_id=node_id, kind=kind, detail=detail)
            record.failure = failure
            stage_span.finish(error=str(failure))
            if journal is not None:
                fail(journal, self.executor_id, str(failure),
                     stage=node_id, failure_kind=kind)
            self._finish(record, done, run_span, failed=True, flags=flags)

        def runner():
            try:
                keys: Dict[str, str] = {}
                outputs: Dict[str, Any] = {}
                for node in workflow.topological_order():
                    key = stage_key(node, params, keys)
                    keys[node.node_id] = key
                    started = self.sim.now
                    stage_span = tracer.start_span(
                        f"workflow.stage {node.node_id}", parent=run_span,
                        kind="stage", attributes={"cache_key": key})
                    if key in self._cache:
                        output = self._cache[key]
                        cached = True
                    else:
                        cached = False
                        call = node.service_call
                        upstream = {dep: outputs[dep]
                                    for dep in node.depends_on}
                        if call is None:
                            output = node.fn(params, upstream)
                        else:
                            inputs = call.build_inputs(params, upstream)
                            # every non-cached stage dispatch is admitted
                            # through the scheduling plane (when attached)
                            ticket = (self.scheduler.admit_call(
                                record.run_id, node.node_id,
                                parent=stage_span.context)
                                if self.scheduler is not None else None)
                            request = HttpRequest(
                                "POST",
                                f"/v1/wps/processes/{call.process_id}"
                                f"/execute",
                                body={"inputs": inputs})
                            try:
                                if self.client is not None:
                                    # resilient dispatch: retries /
                                    # breakers / admission via the
                                    # fabric; Execute is replayable,
                                    # hence safe=True
                                    reply = yield self.client.call(
                                        call.address_of, request, safe=True,
                                        timeout=self.request_timeout,
                                        trace=stage_span.context)
                                else:
                                    address = call.address_of()
                                    if address is None:
                                        fail_stage(
                                            node.node_id, "no-address",
                                            f"no endpoint resolves for WPS "
                                            f"process {call.process_id!r} "
                                            f"(session migrated away?)",
                                            stage_span)
                                        return
                                    inject_context(stage_span.context,
                                                   request.headers)
                                    reply = yield self.network.request(
                                        address, request,
                                        timeout=self.request_timeout)
                                if not (isinstance(reply, HttpResponse)
                                        and reply.ok):
                                    fail_stage(
                                        node.node_id, "service-error",
                                        f"service call failed: {reply!r}",
                                        stage_span)
                                    return
                                output = reply.body["outputs"]
                            finally:
                                if ticket is not None:
                                    self.scheduler.release_call(
                                        ticket,
                                        error=(str(record.failure)
                                               if record.failure is not None
                                               else None))
                        self._cache[key] = output
                    stage_span.set_attribute("cached", cached)
                    stage_span.finish()
                    outputs[node.node_id] = output
                    record.stages.append(StageRecord(
                        node_id=node.node_id, cache_key=key, cached=cached,
                        output_repr=_short_repr(output),
                        started_at=started, finished_at=self.sim.now))
                    if node.node_id not in journaled_stages:
                        if not self._checkpoint(journal, record.stages[-1],
                                                output):
                            # fenced: another executor owns this run now
                            self._finish(record, done, run_span,
                                         failed=True, flags=flags)
                            return
                record.outputs = outputs
                if journal is not None:
                    try:
                        finish(journal, self.executor_id,
                               _short_repr(outputs))
                    except j.LeaseError:
                        self._finish(record, done, run_span, failed=True,
                                     flags=flags)
                        return
                self._finish(record, done, run_span, failed=False, flags=flags)
            except Interrupt as stop:
                # the executor died (or lost its lease) mid-stage: the
                # journal's synced prefix survives, everything in memory
                # is gone.  The run becomes an orphan for recovery.
                if journal is not None:
                    journal.crash()
                record.failure = StageFailure(
                    node_id="?", kind="executor-lost",
                    detail=str(stop.cause))
                self._finish(record, done, run_span, failed=True, flags=flags)

        runner_proc = self.sim.spawn(
            runner(), name=f"workflow.{workflow.name}")

        if self.executor is not None:
            def executor_watch():
                yield self.executor.terminated
                if not flags["finished"] and runner_proc.alive:
                    runner_proc.interrupt("executor crashed")
            self.sim.spawn(executor_watch(),
                           name=f"workflow.watch.{record.run_id}")

        if journal is not None:
            self.sim.spawn(self._heartbeat(journal, flags, runner_proc),
                           name=f"workflow.lease.{record.run_id}")
        return done

    def _heartbeat(self, journal, flags, runner_proc):
        """Renew the run lease until the run finishes.

        A blackholed executor skips renewal (its writes cannot leave the
        NIC), so its lease expires and recovery can take over; when it
        heals, the failed renewal tells it it lost ownership and the
        runner is stopped — exactly one owner survives.
        """
        interval = max(self.lease_ttl / 3.0, 0.001)
        while not flags["finished"]:
            yield interval
            if flags["finished"] or self._executor_gone():
                return
            if self._executor_dark():
                continue
            try:
                journal.renew(self.executor_id, self.lease_ttl)
            except j.LeaseError as err:
                obs_of(self.sim).events.emit(
                    "durable.lease.lost", run=journal.run_id,
                    owner=self.executor_id)
                if not flags["finished"] and runner_proc.alive:
                    runner_proc.interrupt(f"lease lost: {err}")
                return

    def _checkpoint(self, journal, stage: StageRecord, output: Any) -> bool:
        """CHECKPOINT a completed stage; ``False`` when fenced out."""
        if journal is None:
            return True
        ok, clean = j.jsonable(output)
        try:
            journal.append(j.CHECKPOINT, sync=not self._executor_dark(),
                           node_id=stage.node_id, cache_key=stage.cache_key,
                           cached=stage.cached, replayable=ok,
                           output=clean if ok else None,
                           output_repr=stage.output_repr)
        except j.Fenced:
            return False
        return True

    def _finish(self, record: RunRecord, done: Signal, run_span,
                failed: bool, flags: dict) -> None:
        if flags["finished"]:
            return
        flags["finished"] = True
        run_span.finish(error="workflow failed" if failed else None)
        self._runs.append(record)
        if not done.fired:
            done.fire(None if failed else record)
