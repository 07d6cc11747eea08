"""Provider-neutral dispatch core: priority classes and class queues.

The substrate everything places through.  A :class:`Dispatcher` owns one
:class:`ClassedQueue` per managed service: three priority classes
(interactive portal sessions ahead of workflow stages ahead of batch
sweeps), deficit-round-robin weighted-fair service across tenant lanes
within a class (arrival order while only one lane has work), optional
per-class bounds that shed the lowest-value work (a ``queue_full``
refusal) instead of queueing it forever.

This module deliberately imports nothing from :mod:`repro.broker` — the
broker's Load Balancer imports *it*, and the layering (broker, workflow
and ensemble layers above; one scheduling substrate below) is the
point.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT
from repro.tenancy.registry import TenantRegistry


class PriorityClass(enum.IntEnum):
    """Dispatch priority; lower value wins the next free slot.

    The ordering encodes the paper's QoS stance: a stakeholder waiting
    at the portal outranks a composed workflow stage, which outranks a
    parameter-sweep evaluation that nobody is watching in real time.
    """

    INTERACTIVE = 0
    WORKFLOW = 1
    BATCH = 2


class _DrrLanes:
    """One priority class's deficit-round-robin state.

    ``lanes`` holds a FIFO deque per tenant, ``active`` the round-robin
    rotation of tenants with queued work, ``deficit`` each tenant's
    accumulated service credit (in unit-cost items).
    """

    __slots__ = ("lanes", "active", "deficit")

    def __init__(self):
        self.lanes: Dict[str, Deque[Any]] = {}
        self.active: Deque[str] = deque()
        self.deficit: Dict[str, float] = {}

    def depth(self) -> int:
        return sum(len(lane) for lane in self.lanes.values())


class ClassedQueue:
    """Per-priority-class queues: FIFO per tenant, DRR across tenants.

    ``bounds`` maps a :class:`PriorityClass` to its maximum depth;
    classes without a bound queue without limit.  A push against a full
    class is *shed* — the caller is told, the shed counter ticks, and
    nothing is enqueued.

    *Within* each class, dequeue is deficit round robin across tenant
    lanes: each visit to the tenant at the head of the rotation adds
    its ``weight`` to a deficit counter, one unit of deficit buys one
    dequeue, and a weight-w tenant therefore gets w dequeues per round
    while every lane stays backlogged.  Items pushed without naming a
    tenant ride the :data:`~repro.tenancy.context.DEFAULT_TENANT` lane;
    while only one lane has work every visit serves its head, so
    service order is arrival order.
    """

    def __init__(self, bounds: Optional[Dict[PriorityClass, int]] = None):
        self._lanes: Dict[PriorityClass, _DrrLanes] = {
            cls: _DrrLanes() for cls in PriorityClass}
        self._bounds: Dict[PriorityClass, int] = dict(bounds or {})
        self._weights: Dict[str, float] = {}
        self.shed: Dict[PriorityClass, int] = {cls: 0 for cls in PriorityClass}

    # -- tenant policy -------------------------------------------------------

    def set_weight(self, tenant: str, weight: float) -> None:
        """Set a tenant's DRR quantum (service share per round)."""
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        self._weights[tenant] = float(weight)

    def weight_of(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    # -- enqueue -------------------------------------------------------------

    def push(self, item: Any,
             priority: PriorityClass = PriorityClass.INTERACTIVE,
             front: bool = False, tenant: str = DEFAULT_TENANT,
             weight: Optional[float] = None) -> bool:
        """Enqueue ``item``; returns ``False`` if its class is full.

        ``front`` re-enters the item at the *head* of its tenant's lane
        — the migration path: a displaced session has already waited
        its turn once and must not queue behind fresh arrivals.  Its
        tenant is also promoted to the head of the rotation with enough
        deficit for one immediate dequeue.
        """
        if weight is not None:
            self.set_weight(tenant, weight)
        state = self._lanes[priority]
        bound = self._bounds.get(priority)
        if bound is not None and state.depth() >= bound and not front:
            self.shed[priority] += 1
            return False
        lane = state.lanes.get(tenant)
        if lane is None:
            lane = state.lanes[tenant] = deque()
        if tenant not in state.deficit:
            state.deficit[tenant] = 0.0
        if not lane and tenant not in state.active:
            if front:
                state.active.appendleft(tenant)
            else:
                state.active.append(tenant)
        if front:
            lane.appendleft(item)
            if state.active and state.active[0] != tenant:
                state.active.remove(tenant)
                state.active.appendleft(tenant)
            state.deficit[tenant] = max(state.deficit[tenant], 1.0)
        else:
            lane.append(item)
        return True

    def push_front_many(self, items: List[Any], priority: PriorityClass,
                        tenants: List[str]) -> None:
        """Re-enter ``items`` at the head, preserving their order."""
        for item, tenant in zip(reversed(items), reversed(tenants)):
            self.push(item, priority, front=True, tenant=tenant)

    # -- dequeue -------------------------------------------------------------

    def next_class(self) -> Optional[PriorityClass]:
        """The class the next :meth:`pop` will serve (``None`` if empty)."""
        for cls in PriorityClass:
            if self._lanes[cls].active:
                return cls
        return None

    def _pop_class(self, state: _DrrLanes) -> Tuple[Any, str]:
        """One DRR dequeue from a class known to have queued work."""
        while True:
            tenant = state.active[0]
            if state.deficit[tenant] < 1.0:
                state.deficit[tenant] += self.weight_of(tenant)
                if state.deficit[tenant] < 1.0:
                    # a weight<1 lane keeps accruing across rounds and
                    # is skipped until a full unit is banked
                    state.active.rotate(-1)
                    continue
            lane = state.lanes[tenant]
            item = lane.popleft()
            state.deficit[tenant] -= 1.0
            if not lane:
                # an emptied lane leaves the rotation and forfeits its
                # leftover deficit: credit never outlives a backlog
                del state.lanes[tenant]
                state.active.popleft()
                state.deficit.pop(tenant, None)
            elif state.deficit[tenant] < 1.0:
                state.active.rotate(-1)
            return item, tenant

    def pop(self) -> Optional[Tuple[Any, PriorityClass, str]]:
        """Dequeue the highest-priority item, weighted-fair in class.

        Returns ``(item, class, tenant)`` — the tenant whose lane served
        it — or ``None`` when every class is empty.
        """
        for cls in PriorityClass:
            state = self._lanes[cls]
            if state.active:
                item, tenant = self._pop_class(state)
                return item, cls, tenant
        return None

    # -- introspection -------------------------------------------------------

    def depth(self, priority: Optional[PriorityClass] = None) -> int:
        """Queued items in one class, or in all classes."""
        if priority is not None:
            return self._lanes[priority].depth()
        return sum(state.depth() for state in self._lanes.values())

    def counts(self) -> Dict[str, int]:
        """Depth per class, keyed by lowercase class name."""
        return {cls.name.lower(): self._lanes[cls].depth()
                for cls in PriorityClass}

    def tenant_depths(self) -> Dict[str, int]:
        """Queued items per tenant, across all classes."""
        totals: Dict[str, int] = {}
        for state in self._lanes.values():
            for tenant, lane in state.lanes.items():
                totals[tenant] = totals.get(tenant, 0) + len(lane)
        return totals

    def items(self, priority: PriorityClass) -> List[Any]:
        """One class's queued items in projected service order.

        Computed on a copy of the DRR state — peeking never perturbs
        the deficits or the rotation.  With a single lane this is the
        lane itself, in arrival order.
        """
        state = self._lanes[priority]
        if len(state.lanes) <= 1:
            return [item for lane in state.lanes.values() for item in lane]
        shadow = _DrrLanes()
        shadow.lanes = {t: deque(lane) for t, lane in state.lanes.items()}
        shadow.active = deque(state.active)
        shadow.deficit = dict(state.deficit)
        out: List[Any] = []
        while shadow.active:
            item, _ = self._pop_class(shadow)
            out.append(item)
        return out

    def __len__(self) -> int:
        return self.depth()


class Dispatcher:
    """The per-shard dispatch substrate one Load Balancer runs on.

    Owns the per-service class queues, the shed/placement counters and
    the ``sched.submit`` spans that cover an item's whole queue wait
    (opened at enqueue, finished at dequeue with ``shard`` and
    ``class`` attributes).  The Load Balancer asks it *who waits next*;
    the Dispatcher never talks to the cloud itself — provider-neutral
    by construction.
    """

    def __init__(self, sim: Simulator, shard_id: int = 0,
                 metrics=None,
                 bounds: Optional[Dict[PriorityClass, int]] = None):
        self.sim = sim
        self.shard_id = shard_id
        self.metrics = metrics
        self.bounds = dict(bounds or {})
        #: the source of DRR weights and the sink of service accounting;
        #: knows only ``default`` until :meth:`attach_tenants` swaps it
        self.tenants = TenantRegistry()
        self._queues: Dict[str, ClassedQueue] = {}
        #: open sched.submit spans per queued traceable item id
        self._submit_spans: Dict[str, Any] = {}

    # -- service registration ------------------------------------------------

    def register(self, service_name: str) -> None:
        """Create the class queue for a newly managed service."""
        if service_name not in self._queues:
            self._queues[service_name] = ClassedQueue(bounds=self.bounds)

    def attach_tenants(self, registry) -> None:
        """Install the tenant registry (weights + fairness accounting)."""
        self.tenants = registry

    def queue(self, service_name: str) -> ClassedQueue:
        """The class queue of one service."""
        return self._queues[service_name]

    # -- enqueue / dequeue ---------------------------------------------------

    def enqueue(self, service_name: str, item: Any,
                priority: PriorityClass = PriorityClass.INTERACTIVE,
                item_id: Optional[str] = None,
                trace_parent=None,
                tenant: str = DEFAULT_TENANT) -> bool:
        """Queue ``item``; returns ``False`` when its class shed it.

        ``item_id``/``trace_parent`` open a ``sched.submit`` span that
        stays open for the queue wait; the span closes (with shard and
        class attributes) when the item is dequeued or shed.  ``tenant``
        selects the item's DRR lane (and is whom a shed refuses).
        """
        accepted = self._queues[service_name].push(
            item, priority, tenant=tenant,
            weight=self.tenants.weight_of(tenant))
        self._count(f"enqueue.{priority.name.lower()}" if accepted
                    else f"shed.{priority.name.lower()}")
        if not accepted:
            refuse(self.sim, Cause.QUEUE_FULL, tenant=tenant,
                   service=service_name, shard=self.shard_id,
                   priority=priority.name.lower(), item=item_id)
            return False
        if item_id is not None and trace_parent is not None:
            self._submit_spans[item_id] = obs_of(self.sim).tracer.start_span(
                "sched.submit", parent=trace_parent, kind="sched",
                attributes={"service": service_name,
                            "shard": self.shard_id,
                            "class": priority.name.lower(),
                            "queued": True, "tenant": tenant})
        return True

    def next_class(self, service_name: str) -> Optional[PriorityClass]:
        """Class of the next item :meth:`dequeue` would serve."""
        return self._queues[service_name].next_class()

    def dequeue(self, service_name: str
                ) -> Optional[Tuple[Any, PriorityClass]]:
        """Pop the next item in priority order (``None`` when empty)."""
        entry = self._queues[service_name].pop()
        if entry is None:
            return None
        item, cls, tenant = entry
        self._count(f"place.{cls.name.lower()}")
        self.tenants.record_service(tenant)
        return item, cls

    def requeue_front(self, service_name: str, items: List[Any],
                      priority: PriorityClass,
                      tenants: List[str]) -> None:
        """Displaced items re-enter at the head of their class, in order."""
        self._queues[service_name].push_front_many(items, priority, tenants)
        self._count(f"requeue.{priority.name.lower()}", len(items))

    # -- bookkeeping ---------------------------------------------------------

    def finish_submit_span(self, item_id: str, error: Optional[str] = None,
                           **attributes) -> None:
        """Close the open queue-wait span of ``item_id`` (if traced)."""
        span = self._submit_spans.pop(item_id, None)
        if span is None:
            return
        for key, value in attributes.items():
            span.set_attribute(key, value)
        span.finish(error=error)

    def placed_now(self, service_name: str, priority: PriorityClass,
                   tenant: str = DEFAULT_TENANT) -> None:
        """Record an immediate (queue-bypassing) placement."""
        self._count(f"place.{priority.name.lower()}")
        self.tenants.record_service(tenant)

    def depth(self, service_name: str) -> int:
        """Queue depth for one service."""
        queue = self._queues.get(service_name)
        return 0 if queue is None else queue.depth()

    def class_depth(self, priority: PriorityClass) -> int:
        """Queue depth of one class, summed across services."""
        return sum(queue.depth(priority) for queue in self._queues.values())

    def depths(self) -> Dict[str, Dict[str, int]]:
        """Per-service, per-class queue depths (the admin view)."""
        return {name: queue.counts()
                for name, queue in self._queues.items()}

    def tenant_depths(self) -> Dict[str, int]:
        """Queued items per tenant across all services and classes."""
        totals: Dict[str, int] = {}
        for queue in self._queues.values():
            for tenant, n in queue.tenant_depths().items():
                totals[tenant] = totals.get(tenant, 0) + n
        return totals

    def shed_counts(self) -> Dict[str, int]:
        """Total sheds per class across all services."""
        totals = {cls.name.lower(): 0 for cls in PriorityClass}
        for queue in self._queues.values():
            for cls, n in queue.shed.items():
                totals[cls.name.lower()] += n
        return totals

    def _count(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment(by)
