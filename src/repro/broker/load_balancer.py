"""The Load Balancer: placement, autoscaling, failure recovery.

Responsibilities, straight from Section IV-D:

* *minimise costs* — serve from private instances by default; upon
  saturation launch public instances beside private ones; on underuse
  retire public replicas first, migrating users back to private;
* *maintain responsiveness* — watch instance statistics and, on the
  degradation signatures, start a replacement and redirect the affected
  users to it;
* redistribute sessions over running instances and use RB's push channel
  to deliver updated session information.

The LB is deliberately the only component that launches or terminates
instances; everything else asks it.  It keeps no burst state: every
launch is committed to the shared
:class:`~repro.sched.ledger.CapacityLedger` and every retirement
released from it, and the ledger alone says whether the estate is
cloudbursting.  A replica leaves its pool through one exit,
:meth:`LoadBalancer._retire`, whichever path — scale-down, fault
replacement, boot failure or operator drain — retires it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional

from repro.broker.health import HealthMonitor, HealthVerdict
from repro.broker.policies import PlacementContext, SchedulingPolicy
from repro.broker.pool import ManagedService
from repro.broker.sessions import SessionState, SessionTable, UserSession
from repro.cloud.errors import CloudError
from repro.cloud.instance import Instance
from repro.cloud.multicloud import MultiCloud, NodeTemplate
from repro.obs.hub import obs_of
from repro.obs.tracer import Span
from repro.sched.core import Dispatcher, PriorityClass
from repro.sched.ledger import CapacityLedger
from repro.services.registry import ServiceRecord, ServiceRegistry
from repro.services.transport import Network
from repro.sim import MetricsRegistry, Signal, Simulator


class LoadBalancer:
    """Pool manager for every :class:`ManagedService`.

    Session queueing runs on the scheduling substrate: one
    :class:`~repro.sched.core.Dispatcher` holds the per-service class
    queues (interactive > workflow > batch, FIFO within a class), and
    in a sharded plane this LB is one shard of N, reporting launches
    and retirements into a shared
    :class:`~repro.sched.ledger.CapacityLedger`.
    """

    def __init__(self, sim: Simulator, multicloud: MultiCloud, network: Network,
                 sessions: SessionTable, policy: SchedulingPolicy, *,
                 monitor: HealthMonitor, ledger: CapacityLedger,
                 registry: Optional[ServiceRegistry] = None,
                 autoscale_interval: float = 15.0,
                 breakers=None,
                 shard_id: int = 0,
                 queue_bounds: Optional[Dict[PriorityClass, int]] = None):
        self.sim = sim
        self.multicloud = multicloud
        self.network = network
        self.sessions = sessions
        self.policy = policy
        self.monitor = monitor
        self.registry = registry if registry is not None else ServiceRegistry()
        self.autoscale_interval = autoscale_interval
        #: shared BreakerRegistry; per-location launch breakers stop the
        #: LB hammering a provider whose control plane keeps refusing
        self.breakers = breakers
        #: which control-plane shard this LB is (0 when unsharded)
        self.shard_id = shard_id
        #: the deployment-wide capacity book every shard shares; it alone
        #: records what is committed and whether the estate is bursting
        self.ledger = ledger
        #: hard per-replica session cap (sessions_per_replica) when True;
        #: otherwise sessions pile onto the least-loaded replica unbounded
        self.strict_capacity = False
        #: free slots batch-class placements must leave for higher classes
        #: (strict mode only)
        self.batch_headroom = 0
        #: accept-queue bound per replica, as a multiple of its vCPUs;
        #: None disables back-pressure (the ablation baseline)
        self.queue_bound_factor: Optional[int] = 4
        self.metrics = MetricsRegistry(sim, namespace="lb")
        self.dispatcher = Dispatcher(sim, shard_id=shard_id,
                                     metrics=self.metrics.sub("sched"),
                                     bounds=queue_bounds)
        self._services: Dict[str, ManagedService] = {}
        self._place_spans: Dict[str, Span] = {}  # session_id -> open span
        self._replacing: set = set()
        self._autoscaler_running = False
        self.monitor.on_verdict(self._on_verdict)

    # -- service management -----------------------------------------------------

    def manage(self, service: ManagedService,
               initial_replicas: Optional[int] = None) -> ManagedService:
        """Take ownership of ``service`` and launch its initial replicas."""
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already managed")
        self._services[service.name] = service
        self.dispatcher.register(service.name)
        count = (initial_replicas if initial_replicas is not None
                 else service.min_replicas)
        for _ in range(count):
            self.scale_up(service)
        if not self._autoscaler_running:
            self._autoscaler_running = True
            self.sim.spawn(self._autoscale_loop(), name="lb-autoscaler")
        return service

    def service(self, name: str) -> ManagedService:
        """Look up a managed service by name."""
        return self._services[name]

    def services(self) -> List[ManagedService]:
        """All managed services."""
        return list(self._services.values())

    def _service_of(self, instance: Instance) -> Optional[ManagedService]:
        for service in self._services.values():
            if service.has_replica(instance):
                return service
        return None

    # -- placement ----------------------------------------------------------------

    def place_session(self, session: UserSession, service_name: str,
                      priority: PriorityClass = PriorityClass.INTERACTIVE
                      ) -> None:
        """Assign ``session`` to the least-loaded replica, or queue it.

        ``priority`` is the session's scheduling class; queued sessions
        wait in their class queue (interactive ahead of workflow ahead
        of batch) and drain in that order as capacity appears.  The
        session wait-time recorder is the QoS series the flash-crowd
        bench reports.
        """
        service = self._services[service_name]
        session.priority = priority
        tenant = session.tenant
        span: Optional[Span] = None
        if session.trace_context is not None:
            span = obs_of(self.sim).tracer.start_span(
                "lb.place", parent=session.trace_context, kind="placement",
                attributes={"service": service_name,
                            "session": session.session_id,
                            "shard": self.shard_id,
                            "class": priority.name.lower(),
                            "tenant": tenant})
        replica = self._candidate_replica(service, priority)
        if replica is not None:
            session.assign(replica)
            self.dispatcher.placed_now(service_name, priority, tenant=tenant)
            self.metrics.recorder("session.wait").record(session.wait_time or 0.0)
            if span is not None:
                span.set_attribute("instance", replica.instance_id)
                span.finish()
        else:
            accepted = self.dispatcher.enqueue(
                service_name, session, priority,
                item_id=session.session_id,
                trace_parent=session.trace_context,
                tenant=tenant)
            if not accepted:
                # the class queue is full: shed instead of queueing the
                # lowest-value work forever (bounded-queue back-pressure)
                if span is not None:
                    span.finish(error="shed: class queue full")
                return
            # the placement span stays open across the queue wait; it
            # closes when a booted replica drains this session
            if span is not None:
                span.annotate("queued",
                              waiting=self.dispatcher.depth(service_name))
                self._place_spans[session.session_id] = span
            if service.projected_size() == 0:
                self.scale_up(service)

    def _candidate_replica(self, service: ManagedService,
                           priority: PriorityClass) -> Optional[Instance]:
        """The replica this placement may use right now, if any.

        With ``strict_capacity`` off: any serving replica, least-loaded
        first.  In strict mode
        ``sessions_per_replica`` is a hard per-replica cap and batch
        placements must additionally leave ``batch_headroom`` free
        slots for interactive/workflow arrivals — how a sweep saturates
        the cluster without harming portal sessions.
        """
        if not self.strict_capacity:
            return service.least_loaded()
        candidates = service.healthy_serving() or service.serving()
        counts = {inst.instance_id: self.sessions.count_on(inst)
                  for inst in candidates}
        open_slots = [inst for inst in candidates
                      if counts[inst.instance_id] < service.sessions_per_replica]
        if not open_slots:
            return None
        if priority == PriorityClass.BATCH:
            free = sum(service.sessions_per_replica - counts[inst.instance_id]
                       for inst in open_slots)
            if free <= self.batch_headroom:
                return None
        return min(open_slots, key=lambda inst: counts[inst.instance_id])

    def _finish_place_span(self, session: UserSession,
                           replica: Optional[Instance]) -> None:
        span = self._place_spans.pop(session.session_id, None)
        if span is None:
            return
        if replica is not None:
            span.set_attribute("instance", replica.instance_id)
            span.finish()
        else:
            span.finish(error="session ended while waiting")

    def _drain_waiting(self, service: ManagedService) -> None:
        while True:
            next_class = self.dispatcher.next_class(service.name)
            if next_class is None:
                return
            replica = self._candidate_replica(service, next_class)
            if replica is None:
                return
            entry = self.dispatcher.dequeue(service.name)
            if entry is None:
                return
            session, cls = entry
            if session.state is SessionState.ENDED:
                self._finish_place_span(session, None)
                self.dispatcher.finish_submit_span(
                    session.session_id, error="session ended while waiting")
                continue
            if session.state is not SessionState.WAITING:
                # already placed elsewhere (a geo failover re-placed it
                # in a surviving region while this entry sat queued);
                # assigning again would yank the user back
                self._finish_place_span(session, session.instance)
                self.dispatcher.finish_submit_span(
                    session.session_id, error="session placed elsewhere")
                continue
            session.assign(replica)
            self._finish_place_span(session, replica)
            self.dispatcher.finish_submit_span(
                session.session_id, instance=replica.instance_id)
            if session.trace_context is not None:
                obs_of(self.sim).tracer.start_span(
                    "sched.place", parent=session.trace_context, kind="sched",
                    attributes={"service": service.name,
                                "shard": self.shard_id,
                                "class": cls.name.lower(),
                                "instance": replica.instance_id}).finish()
            self.metrics.recorder("session.wait").record(session.wait_time or 0.0)

    # -- scaling ---------------------------------------------------------------------

    def scale_up(self, service: ManagedService) -> Optional[Instance]:
        """Launch one replica per the scheduling policy.

        Returns the PENDING instance, or ``None`` if every allowed
        location refused (the private-only policy at saturation — the
        paper's grid-quota analogue).
        """
        if service.projected_size() >= service.max_replicas:
            return None
        context = PlacementContext(image=service.image, purpose=service.purpose)
        instance: Optional[Instance] = None
        chosen_location: Optional[str] = None
        for location in self.policy.locations(context):
            breaker = (self.breakers.get(f"launch@{location}")
                       if self.breakers is not None else None)
            if breaker is not None and not breaker.allow():
                self._log("launch.skipped", service=service.name,
                          location=location)
                continue
            if not self.ledger.admit(location, service.flavor.vcpus,
                                     tenant=service.tenant):
                # the deployment-wide budget (all shards) is spent here
                continue
            try:
                instance = self.multicloud.compute(location).launch(
                    service.image, service.flavor)
                chosen_location = location
                if breaker is not None:
                    breaker.record_success()
                break
            except CloudError:
                if breaker is not None:
                    breaker.record_failure()
                continue
        if instance is None:
            self.metrics.counter("scaleup.refused").increment()
            self._log("scaleup.refused", service=service.name)
            return None
        service.pending_launches += 1
        self.ledger.commit(chosen_location, service.flavor.vcpus,
                           public=chosen_location == "public",
                           tenant=service.tenant)
        self.metrics.counter(f"launch.{chosen_location}").increment()
        self._log("launch", service=service.name, location=chosen_location,
                  instance=instance.instance_id)

        def on_ready():
            booted = yield instance.ready
            service.pending_launches -= 1
            if booted is None or not instance.is_serving:
                self._log("boot.failed", instance=instance.instance_id)
                self._retire(instance, service)
                return
            # bounded accept queue: overload turns into fast 503s the
            # client retries elsewhere, not hour-long queueing
            if self.queue_bound_factor is not None:
                instance.max_queue = (self.queue_bound_factor
                                      * instance.flavor.vcpus)
            server = service.make_server(instance)
            service.add_replica(instance)
            self.monitor.watch(instance)
            try:
                self.registry.register(ServiceRecord(
                    name=service.name, service_type="rest",
                    address=instance.address,
                    metadata={"location": chosen_location or ""}))
            except ValueError:
                pass
            self._log("replica.ready", service=service.name,
                      instance=instance.instance_id)
            self._drain_waiting(service)
            return server

        self.sim.spawn(on_ready(), name=f"lb.boot.{instance.instance_id}")
        return instance

    def scale_down(self, service: ManagedService) -> bool:
        """Retire one replica, preferring public (cost) then idle ones.

        Sessions on the victim are migrated to the remaining replicas
        before termination — the graceful migration REST statelessness
        buys.  Returns whether a replica was retired.
        """
        serving = service.serving()
        if len(serving) <= service.min_replicas:
            return False
        public = [inst for inst in serving
                  if self.multicloud.location_of(inst, default="unknown")
                  == "public"]
        candidates = public or serving
        # graceful drain: only retire replicas with no in-flight work, so
        # no caller ever loses a response to a scale-down
        idle = [inst for inst in candidates if inst.load() == 0]
        if not idle:
            return False
        victim = min(idle, key=self.sessions.count_on)
        remaining = [inst for inst in serving if inst is not victim]
        if not remaining:
            return False
        self._migrate_sessions(victim, service, reason="scale-down")
        self._retire(victim, service)
        self._log("scaledown", service=service.name, instance=victim.instance_id)
        return True

    def _retire(self, instance: Instance, service: ManagedService) -> None:
        """The one way a replica leaves its pool: both halves at once.

        A drain runs the same two halves with the in-flight wait between
        them, so every exit gives the replica's vCPUs back to the ledger.
        """
        self._leave(instance, service)
        self._release(instance, service)

    def _leave(self, instance: Instance, service: ManagedService) -> None:
        """No new work reaches the replica: out of pool, monitor, registry."""
        service.drop_replica(instance)
        self.monitor.unwatch(instance)
        self.registry.deregister(service.name, instance.address)

    def _release(self, instance: Instance, service: ManagedService) -> None:
        """The replica's capacity goes back: network, ledger, provider."""
        self.network.unregister(instance.address)
        location = self.multicloud.location_of(instance, default="unknown")
        self.ledger.release(location, service.flavor.vcpus,
                            public=location == "public",
                            tenant=service.tenant)
        if not instance.is_gone:
            self.multicloud.destroy_node(instance)

    def _migrate_sessions(self, source: Instance, service: ManagedService,
                          reason: str) -> None:
        displaced: List[UserSession] = []
        for session in self.sessions.on_instance(source):
            target = min(
                (inst for inst in service.serving() if inst is not source),
                key=lambda inst: inst.load(), default=None)
            if target is None:
                session.unassign()
                displaced.append(session)
            else:
                session.assign(target)
            self.metrics.counter("migrations").increment()
            self._log("migrate", session=session.session_id, reason=reason)
        if displaced:
            # displaced sessions already waited their turn once: they
            # re-enter at the *head* of their class queue, in their
            # original order, ahead of any fresh arrivals
            for cls in PriorityClass:
                batch = [s for s in displaced
                         if (s.priority or PriorityClass.INTERACTIVE) == cls]
                if batch:
                    self.dispatcher.requeue_front(
                        service.name, batch, cls,
                        tenants=[s.tenant for s in batch])

    def drain(self, instance: Instance) -> Signal:
        """Gracefully retire one replica on operator request.

        The maintenance path: stop routing new sessions to the instance
        (it leaves the pool immediately), migrate its sessions, wait for
        in-flight work to finish, then release it.  Returns a signal
        fired with True when the instance is gone, or False if it was
        not a managed replica.
        """
        done = self.sim.signal(f"drain.{instance.instance_id}")
        service = self._service_of(instance)
        if service is None:
            self.sim.schedule(0.0, done.fire, False)
            return done
        self._leave(instance, service)
        self._migrate_sessions(instance, service, reason="drain")
        self._log("drain.start", instance=instance.instance_id)

        def drainer():
            while instance.load() > 0 and instance.is_serving:
                yield 5.0
            self._release(instance, service)
            self._log("drain.done", instance=instance.instance_id)
            done.fire(True)

        self.sim.spawn(drainer(), name=f"drain.{instance.instance_id}")
        return done

    # -- failure handling --------------------------------------------------------------

    def _on_verdict(self, instance: Instance, verdict: HealthVerdict) -> None:
        if not verdict.is_fault:
            return  # OVERLOADED is handled by the autoscale loop
        if instance.instance_id in self._replacing:
            return
        service = self._service_of(instance)
        if service is None:
            return
        self._replacing.add(instance.instance_id)
        self.metrics.counter(f"fault.{verdict.value}").increment()
        self._log("fault.detected", instance=instance.instance_id,
                  verdict=verdict.value)
        # redirect users first, then replace capacity, then destroy
        self._migrate_sessions(instance, service, reason=f"fault:{verdict.value}")
        self._retire(instance, service)
        self.scale_up(service)
        self._log("fault.recovered", instance=instance.instance_id)

    # -- autoscaling --------------------------------------------------------------------

    def _autoscale_loop(self):
        while True:
            yield self.autoscale_interval
            for service in self._services.values():
                self._autoscale_service(service)

    def _autoscale_service(self, service: ManagedService) -> None:
        demand = (sum(self.sessions.count_on(inst)
                      for inst in service.serving())
                  + self.dispatcher.depth(service.name))
        desired = max(service.min_replicas,
                      min(service.max_replicas,
                          math.ceil(demand / service.sessions_per_replica)))
        current = service.projected_size()
        if desired > current:
            for _ in range(desired - current):
                if self.scale_up(service) is None:
                    break
        elif desired < current - service.pending_launches:
            for _ in range(current - service.pending_launches - desired):
                if not self.scale_down(service):
                    break
        self._rebalance(service)
        # strict-capacity mode can leave queued work while replicas have
        # open slots (sessions ended, headroom freed) — drain it here;
        # in default mode a non-empty queue implies nothing is serving,
        # so this pass is a no-op and behaviour is unchanged
        self._drain_waiting(service)

    def _rebalance(self, service: ManagedService) -> None:
        """Even out session counts across serving replicas.

        Each move takes the oldest-created session of the busiest
        replica to the quietest; ties on either side go to the replica
        earliest in ``serving()`` order.  Two heaps over the count
        vector find both ends in O(log n) per move: a move pushes the
        two changed counts, and an entry whose count is no longer the
        replica's current one is skipped when it surfaces.
        """
        serving = service.serving()
        if len(serving) < 2:
            return
        counts = [self.sessions.count_on(inst) for inst in serving]
        busiest_first = [(-count, at) for at, count in enumerate(counts)]
        quietest_first = [(count, at) for at, count in enumerate(counts)]
        heapq.heapify(busiest_first)
        heapq.heapify(quietest_first)
        while True:
            while -busiest_first[0][0] != counts[busiest_first[0][1]]:
                heapq.heappop(busiest_first)
            while quietest_first[0][0] != counts[quietest_first[0][1]]:
                heapq.heappop(quietest_first)
            busiest, quietest = busiest_first[0][1], quietest_first[0][1]
            if counts[busiest] - counts[quietest] <= 1:
                break
            session = self.sessions.oldest_on(serving[busiest])
            session.assign(serving[quietest])
            for at, change in ((busiest, -1), (quietest, +1)):
                counts[at] += change
                heapq.heappush(busiest_first, (-counts[at], at))
                heapq.heappush(quietest_first, (counts[at], at))
            self.metrics.counter("rebalances").increment()

    def _log(self, kind: str, **fields) -> None:
        # every decision goes to the shared structured event log, so LB
        # activity lines up with traces and instance lifecycle events
        obs_of(self.sim).events.emit(f"lb.{kind}", **fields)
