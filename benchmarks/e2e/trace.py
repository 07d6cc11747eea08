"""Host-clock tracing from outside the program.

The program's own ``repro.obs`` spans run on the *simulated* clock; they
cannot say what a layer costs in Python.  This module wraps exactly the
public callables named in :data:`TRACED` — patched on their classes
from the benchmark process, restored afterwards — and records, per
call, name, layer, start/end ``perf_counter_ns`` and the parent span.
Nothing of ``src/repro`` is imported until a tracer is installed.

Everything the simulator runs is synchronous inside ``Simulator.run``,
so the host-clock span stack *is* the causal parent chain.  A call that
returns a ``Signal`` is timed for its synchronous part only, which is
what host self time means.  A layer's self time is its spans' duration
minus the part their child spans cover.

End-to-end metrics never come from a traced pass: the wrappers cost
about a microsecond per call, reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> the public callables timed for it, as ``module:Owner.attr``
#: (``module:function`` for a module-level function).  Resolved when a
#: tracer is installed, never at import: an untraced run loads none of
#: them, and a callable a later change renames or removes is reported
#: in :attr:`HostTracer.missing` instead of breaking the run.
TRACED: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.kernel:Simulator.run",),
    "services.transport": ("repro.services.transport:Network.request",),
    # the WPS handler's model-run job counts as REST handler work
    "services.rest": ("repro.services.rest:RestServer.handle",
                      "repro.services.rest:RestApi.resolve",
                      "repro.services.wps:WpsProcess.execute"),
    "services.channels": ("repro.services.channels:PushGateway.broadcast",
                          "repro.services.channels:WebSocketConnection.push"),
    "tenancy": ("repro.tenancy.ratelimit:RateLimiter.check",
                "repro.tenancy.registry:TenantRegistry.spec_of",
                "repro.tenancy.registry:TenantRegistry.record_service"),
    "resilience": ("repro.resilience.client:ResilientClient.call",),
    "sched": ("repro.sched.router:ShardedRouter.submit_session",
              "repro.sched.router:ShardedRouter.admit_call",
              "repro.sched.core:Dispatcher.enqueue",
              "repro.sched.core:Dispatcher.dequeue",
              "repro.sched.ledger:CapacityLedger.admit",
              "repro.sched.ledger:CapacityLedger.commit",
              "repro.sched.ledger:CapacityLedger.release"),
    # on_instance is where the autoscale / rebalance pass (a simulator
    # process, not a public call) spends its time
    "broker": ("repro.broker.resource_broker:ResourceBroker.connect",
               "repro.broker.load_balancer:LoadBalancer.place_session",
               "repro.broker.load_balancer:LoadBalancer.scale_up",
               "repro.broker.load_balancer:LoadBalancer.scale_down",
               "repro.broker.sessions:SessionTable.on_instance"),
    "cloud": ("repro.cloud.instance:Instance.submit",
              "repro.cloud.storage:Container.put",
              "repro.cloud.storage:Container.get"),
    "hydrology": ("repro.hydrology.topmodel:Topmodel.run_prepared",
                  "repro.hydrology.vectorized:TopmodelEnsemble.batch"),
    "perf": ("repro.perf.runner:EnsembleRunner.run_many",
             "repro.perf.runcache:RunCache.lookup",
             "repro.perf.runcache:RunCache.store",
             "repro.perf.keys:run_key"),
    "durable": ("repro.durable.ensemble:DurableSweep.run",
                "repro.durable.journal:RunJournal.append",
                "repro.durable.journal:RunJournal.sync",
                "repro.durable.journal:RunJournal.acquire",
                "repro.durable.journal:RunJournal.renew"),
    "dataplane": ("repro.dataplane.outbox:TransactionalOutbox.record",
                  "repro.dataplane.outbox:OutboxRelay.drain_once",
                  "repro.dataplane.stream:EventStream.append",
                  "repro.dataplane.consumers:ConsumerGroup.poll_once",
                  "repro.dataplane.views:MaterializedView.apply",
                  "repro.dataplane.views:CatchmentStatsView.stats",
                  "repro.dataplane.views:LatestObservationView.rows",
                  "repro.dataplane.views:RunSummaryView.rows"),
    "geo": ("repro.geo.replication:Replicator.sweep",
            "repro.geo.election:LeaderElection.step",
            "repro.geo.ledger:GeoLedger.admit",
            "repro.geo.routing:GeoRouter.submit_session"),
    "obs": ("repro.obs.telemetry:MetricsScraper.scrape_once",),
    "portal": ("repro.portal.widgets:ModellingWidget.run",
               "repro.portal.widgets:CatchmentDashboard.refresh"),
}

#: counted, never timed: too hot to time without distorting the
#: kernel's own row
SCHEDULE = "repro.sim.kernel:Simulator.schedule"


def resolve(target: str) -> Optional[Tuple[Any, str]]:
    """``module:Owner.attr`` -> (owner, attr), or ``None`` when the
    module, the owner or the attribute (on the owner itself, not
    inherited) no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def _label(target: str) -> str:
    """``Owner.attr`` — the name a traced callable goes by in every table
    (``keys.run_key`` for a function of module ``repro.perf.keys``)."""
    module_name, _, path = target.partition(":")
    return path if "." in path else f"{module_name.rsplit('.', 1)[-1]}.{path}"


#: the read-side half of the ``dataplane`` layer
DATAPLANE_READS = ("CatchmentStatsView.stats", "LatestObservationView.rows",
                   "RunSummaryView.rows")

#: raw spans kept for the trace file; aggregates cover every call
SPAN_SAMPLE = 50_000


class _Callable:
    """Aggregates of one traced callable."""

    __slots__ = ("name", "layer", "calls", "total_ns", "self_ns")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class HostTracer:
    """Install wrappers, collect spans in memory, restore on exit.

    Use as a context manager around one timed pass.  Aggregates (per
    callable and per collapsed stack) cover every call; the raw span
    list is a bounded sample for the trace file.
    """

    def __init__(self) -> None:
        self.callables: Dict[str, _Callable] = {}
        #: targets of :data:`TRACED` that no longer resolve
        self.missing: List[str] = []
        self.scheduled = 0
        self.calendar_peak = 0
        #: collapsed stack ("a;b;c") -> self nanoseconds
        self.stacks: Dict[str, int] = {}
        #: (name, layer, start_ns, end_ns, parent index or -1)
        self.spans: List[Tuple[str, str, int, int, int]] = []
        self.root_ns = 0
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "HostTracer":
        for layer, targets in TRACED.items():
            for target in targets:
                # called before the loop moves on: no late binding
                self._patch(target, lambda fn: self._timed(
                    fn, _label(target), layer))
        self._patch(SCHEDULE, self._count_schedule)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, target: str,
               wrap: Callable[[Callable], Callable]) -> None:
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr = found
        original = vars(owner)[attr]
        wrapper = wrap(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it in every module that
        # imported it by name, or those callers bypass the wrapper
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(attr) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn: Callable, name: str, layer: str) -> Callable:
        record = self.callables[name] = _Callable(name, layer)
        stack, spans, stacks = self._stack, self.spans, self.stacks

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            index = len(spans) if len(spans) < SPAN_SAMPLE else -1
            if index >= 0:
                spans.append(None)      # reserve the slot: parents first
            # frame: [path, child nanoseconds, span index]
            frame = [f"{parent[0]};{name}" if parent else name, 0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                record.calls += 1
                record.total_ns += elapsed
                record.self_ns += own
                stacks[frame[0]] = stacks.get(frame[0], 0) + own
                if parent is not None:
                    parent[1] += elapsed
                else:
                    self.root_ns += elapsed
                if index >= 0:
                    spans[index] = (name, layer, start, end,
                                    parent[2] if parent else -1)

        return traced

    def _count_schedule(self, schedule: Callable) -> Callable:
        def counted(sim: Any, *args: Any) -> Any:
            self.scheduled += 1
            handle = schedule(sim, *args)
            if sim.calendar_size > self.calendar_peak:
                self.calendar_peak = sim.calendar_size
            return handle

        return counted

    # -- reading -------------------------------------------------------------

    def layer_calls(self) -> Dict[str, int]:
        """Timed calls per layer."""
        out = {layer: 0 for layer in TRACED}
        for record in self.callables.values():
            out[record.layer] += record.calls
        return out

    def layer_self_ns(self) -> Dict[str, int]:
        """Host self nanoseconds per layer."""
        out = {layer: 0 for layer in TRACED}
        for record in self.callables.values():
            out[record.layer] += record.self_ns
        return out

    def calls_of(self, name: str) -> int:
        """Calls of one traced callable, e.g. ``"Container.put"``."""
        record = self.callables.get(name)
        return record.calls if record else 0

    def self_ns_of(self, name: str) -> int:
        """Host self nanoseconds of one traced callable."""
        record = self.callables.get(name)
        return record.self_ns if record else 0

    def collapsed_stacks(self) -> List[str]:
        """``stack;frames weight`` lines, microseconds of self time —
        the format of :func:`repro.obs.export.to_collapsed_stacks`."""
        return [f"{path} {max(1, round(ns / 1000))}"
                for path, ns in sorted(self.stacks.items()) if ns > 0]

    def document(self) -> Dict[str, Any]:
        """Everything the trace file holds."""
        origin: Optional[int] = min(
            (span[2] for span in self.spans if span), default=None)
        return {
            "callables": [
                {"name": r.name, "layer": r.layer, "calls": r.calls,
                 "total_us": r.total_ns / 1000, "self_us": r.self_ns / 1000}
                for r in sorted(self.callables.values(),
                                key=lambda r: -r.self_ns) if r.calls],
            "missing": self.missing,
            "scheduled": self.scheduled,
            "calendar_peak": self.calendar_peak,
            "root_us": self.root_ns / 1000,
            "span_sample_cap": SPAN_SAMPLE,
            "spans": [
                {"name": s[0], "layer": s[1], "start_us": (s[2] - origin)
                 / 1000, "end_us": (s[3] - origin) / 1000, "parent": s[4]}
                for s in self.spans if s],
        }
