"""Managed services: named pools of interchangeable replicas.

A :class:`ManagedService` describes one end-user-facing service (e.g. the
LEFT modelling WPS): which image and flavor its replicas need, how to
materialise a server on a freshly booted instance, and how many sessions
one replica comfortably serves.  The Load Balancer owns the pool's size;
the Resource Broker picks replicas out of it for sessions.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cloud.flavors import Flavor
from repro.cloud.images import MachineImage
from repro.cloud.instance import Instance, InstanceState
from repro.tenancy.context import DEFAULT_TENANT

#: one replica's place in the ranking: (unhealthy, load, join order, replica)
_Rank = Tuple[bool, float, int, Instance]


@dataclass
class ManagedService:
    """Pool definition plus its live replica set.

    ``make_server(instance)`` must create the service endpoint on the
    instance and register it on the network; it runs when a replica
    finishes booting.  ``sessions_per_replica`` is the capacity target
    the autoscaler divides demand by; ``min_replicas``/``max_replicas``
    bound the pool.

    Replicas join through :meth:`add_replica` and leave through
    :meth:`drop_replica`; ``replicas`` stays in join order.  The pool
    keeps a ranking of its serving replicas so :meth:`least_loaded` is a
    peek, not a scan: each replica tells the pool when its load or
    health changes (:meth:`replica_changed`), the pool pushes the
    replica's new rank on a heap, and ranks a replica has since left
    behind are discarded when they surface at the top.
    """

    name: str
    image: MachineImage
    flavor: Flavor
    make_server: Callable[[Instance], Any]
    purpose: str = "general"
    #: owning tenant: whose ledger row this pool's launches commit to
    tenant: str = DEFAULT_TENANT
    sessions_per_replica: int = 10
    min_replicas: int = 1
    max_replicas: int = 64
    replicas: List[Instance] = field(default_factory=list)
    pending_launches: int = 0
    # the ranking is this pool's alone: ``dataclasses.replace`` (how the
    # sharded router cuts a service into slices) starts each copy empty
    _joined: Dict[Instance, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _joins: Iterator[int] = field(
        default_factory=itertools.count, init=False, repr=False,
        compare=False)
    _rank: Dict[Instance, _Rank] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _heap: List[_Rank] = field(
        default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sessions_per_replica <= 0:
            raise ValueError("sessions_per_replica must be positive")
        if self.min_replicas < 0 or self.max_replicas < self.min_replicas:
            raise ValueError("need 0 <= min_replicas <= max_replicas")
        given, self.replicas = self.replicas, []
        for instance in given:
            self.add_replica(instance)

    def serving(self) -> List[Instance]:
        """Replicas currently able to serve."""
        return [inst for inst in self.replicas if inst.is_serving]

    def healthy_serving(self) -> List[Instance]:
        """Serving replicas that are not degraded or blackholed."""
        return [inst for inst in self.serving()
                if inst.state.value == "running" and not inst.network_blackholed]

    def projected_size(self) -> int:
        """Serving replicas plus launches in flight."""
        return len(self.serving()) + self.pending_launches

    def least_loaded(self) -> Optional[Instance]:
        """The serving replica with the lowest load, preferring healthy ones.

        Tie-break contract: healthy replicas (running, not blackholed)
        are preferred as a group over degraded or blackholed ones; within
        the group the lowest ``load()`` wins; equal loads go to the
        replica that joined the pool first.
        """
        heap = self._heap
        while heap:
            top = heap[0]
            if self._rank.get(top[3]) is top:
                return top[3]
            heapq.heappop(heap)
        return None

    def has_replica(self, instance: Instance) -> bool:
        """Whether ``instance`` is a member of this pool."""
        return instance in self._joined

    def add_replica(self, instance: Instance) -> None:
        """Admit ``instance`` to the pool, last in join order."""
        self._joined[instance] = next(self._joins)
        self.replicas.append(instance)
        instance._pool = self
        self.replica_changed(instance)

    def drop_replica(self, instance: Instance) -> None:
        """Remove ``instance`` from the pool (idempotent)."""
        if self._joined.pop(instance, None) is None:
            return
        self.replicas.remove(instance)
        self._rank.pop(instance, None)
        instance._pool = None

    def replica_changed(self, instance: Instance) -> None:
        """Re-rank ``instance`` after its load or health changed.

        Instances call this themselves (``Instance._rank_changed``).  A
        replica that stopped serving simply loses its rank; whatever it
        left on the heap is dropped when it reaches the top.
        """
        if not instance.is_serving:
            self._rank.pop(instance, None)
            return
        unhealthy = (instance.state is not InstanceState.RUNNING
                     or instance.network_blackholed)
        rank = (unhealthy, instance.load(), self._joined[instance], instance)
        self._rank[instance] = rank
        heapq.heappush(self._heap, rank)
        # superseded ranks pile up under a replica that is never the
        # minimum; rebuild once they outnumber the live ones
        if len(self._heap) > 2 * len(self._rank) + 16:
            self._heap = list(self._rank.values())
            heapq.heapify(self._heap)
