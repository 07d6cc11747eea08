"""Rendezvous-hash routing of placements onto control-plane shards.

One Load Balancer object is a scaling choke point: every placement,
drain pass and autoscale decision walks *all* of its replica and
session state.  The :class:`ShardedRouter` splits the control plane
into N shards — each a slimmed per-shard Load Balancer owning a slice
of every service — and routes each session/run to its shard by
**rendezvous (highest-random-weight) hashing**, which is deterministic
(pure SHA-256, no RNG), uniform, and minimally disruptive: adding or
removing a shard only moves the keys that land on it.

The router is the only door the upper layers submit through:
``submit_session`` (broker), ``admit_call`` (workflow stage dispatch)
and ``batch_submission`` (ensemble sweeps) — so priority classes,
submit counters and ``sched.submit`` spans attach in exactly one place.
One shard is not a special case: the same rendezvous, the same slicing
and the same shared tenant registry run at any shard count.
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.hub import obs_of
from repro.sched.core import PriorityClass
from repro.sched.ledger import CapacityLedger
from repro.sim import MetricsRegistry, Simulator
from repro.tenancy.registry import TenantRegistry


def _score(key: str, shard_id: int) -> int:
    digest = hashlib.sha256(f"{shard_id}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_shard(key: str, shard_ids: Sequence[int]) -> int:
    """The shard that wins the rendezvous for ``key``.

    Every shard scores the key independently; the highest score wins.
    Removing a shard therefore only re-homes the keys it was winning,
    and adding one only claims the keys it now outscores everyone on —
    the minimal-movement property the property tests pin.
    """
    if not shard_ids:
        raise ValueError("no shards to route onto")
    return max(shard_ids, key=lambda sid: (_score(key, sid), sid))


@dataclass
class CallTicket:
    """One admitted workflow-stage dispatch."""

    shard: int
    span: Any
    released: bool = False


class ShardedRouter:
    """The scheduling plane: N shard Load Balancers behind one door.

    ``lbs`` are already-constructed Load Balancers (shard id = list
    index) sharing one simulator, session table and the one
    :class:`~repro.sched.ledger.CapacityLedger` passed here as
    ``ledger``.  Every shard's dispatcher shares the router's tenant
    registry.
    """

    def __init__(self, sim: Simulator, lbs: Sequence[Any], *,
                 ledger: CapacityLedger, multicloud: Any,
                 metrics: Optional[MetricsRegistry] = None):
        if not lbs:
            raise ValueError("need at least one shard LB")
        self.sim = sim
        self.lbs: List[Any] = list(lbs)
        self.ledger = ledger
        self.multicloud = multicloud
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            sim, namespace="sched")
        # the saturation dimension of the plane's USE view: waiting
        # items per (shard, priority class), summed across the shard's
        # services and read live from its dispatcher when sampled
        for shard, lb in enumerate(self.lbs):
            for cls in PriorityClass:
                self.metrics.callback_gauge(
                    "sched.queue.depth",
                    lambda lb=lb, cls=cls: lb.dispatcher.class_depth(cls),
                    shard=str(shard), priority=cls.name.lower())
        #: service name -> shard ids hosting a slice of it
        self._service_shards: Dict[str, List[int]] = {}
        self.attach_tenants(TenantRegistry())

    # -- topology ------------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of control-plane shards."""
        return len(self.lbs)

    def shard_ids(self) -> List[int]:
        """All shard ids, ascending."""
        return list(range(len(self.lbs)))

    def shard_of(self, key: str,
                 service_name: Optional[str] = None) -> int:
        """The shard ``key`` rendezvous-routes to.

        With ``service_name`` given, only shards hosting a slice of
        that service participate in the rendezvous.
        """
        ids = self._service_shards.get(service_name) if service_name else None
        return rendezvous_shard(key, ids or self.shard_ids())

    # -- service management --------------------------------------------------

    def manage(self, service, initial_replicas: Optional[int] = None):
        """Manage ``service``, splitting its slices across the shards.

        ``service`` is a template: each participating shard gets its
        own ``ManagedService`` clone whose replica floors/ceilings split
        the originals as evenly as possible (one shard: one slice with
        the originals), and the returned slices — not the template —
        are the live pools.  Shards whose slice would have
        ``max_replicas == 0`` do not host the service and are excluded
        from its rendezvous.
        """
        mins = _distribute(service.min_replicas, len(self.lbs))
        maxes = _distribute(service.max_replicas, len(self.lbs))
        initials = (_distribute(initial_replicas, len(self.lbs))
                    if initial_replicas is not None
                    else [None] * len(self.lbs))
        hosting: List[int] = []
        slices = []
        for shard, lb in enumerate(self.lbs):
            if maxes[shard] == 0:
                continue
            piece = dataclasses.replace(
                service, replicas=[], pending_launches=0,
                min_replicas=min(mins[shard], maxes[shard]),
                max_replicas=maxes[shard])
            lb.manage(piece, initials[shard])
            hosting.append(shard)
            slices.append(piece)
        self._service_shards[service.name] = hosting
        return slices

    def services(self) -> List[Any]:
        """Every managed service slice across all shards."""
        out: List[Any] = []
        for lb in self.lbs:
            out.extend(lb.services())
        return out

    def slices(self, name: str) -> List[Any]:
        """``(lb, service_slice)`` pairs for one service, shard order.

        The hook capacity warm-up paths (RB ``preboot``) use to grow
        each shard's slice through its own Load Balancer.
        """
        return [(self.lbs[shard], self.lbs[shard].service(name))
                for shard in self._service_shards.get(name, [0])]

    # -- session placement (broker layer) ------------------------------------

    def submit_session(self, session, service_name: str,
                       priority: PriorityClass = PriorityClass.INTERACTIVE
                       ) -> int:
        """Place ``session`` on its rendezvous shard; returns the shard."""
        shard = self.shard_of(session.session_id, service_name)
        self.metrics.counter("submit", tenant=session.tenant).increment()
        self.lbs[shard].place_session(session, service_name,
                                      priority=priority)
        return shard

    # -- workflow stage dispatch ---------------------------------------------

    def admit_call(self, run_id: str, node_id: str = "",
                   parent=None) -> CallTicket:
        """Admit one workflow-stage service call through the plane.

        Opens the stage's ``sched.submit`` span; nothing gates.  ``release_call`` must follow the dispatch, success or
        not.
        """
        shard = self.shard_of(run_id)
        span = obs_of(self.sim).tracer.start_span(
            "sched.submit", parent=parent, kind="sched",
            attributes={"shard": shard, "class": "workflow",
                        "run_id": run_id, "node": node_id})
        return CallTicket(shard=shard, span=span)

    def release_call(self, ticket: CallTicket,
                     error: Optional[str] = None) -> None:
        """Finish a stage dispatch: close its span, once."""
        if ticket.released:
            return
        ticket.released = True
        ticket.span.finish(error=error)

    # -- batch / ensemble sweeps ---------------------------------------------

    @contextmanager
    def batch_submission(self, model_id: str, runs: int):
        """Scope one ensemble batch as a BATCH-class submission.

        Opens a ``sched.submit`` span (class ``batch``, shard by model
        id) around the batch; the ensemble runner wraps ``run_many``
        with this so sweeps are visible on the same substrate as
        sessions and stages.
        """
        shard = self.shard_of(model_id)
        span = obs_of(self.sim).tracer.start_span(
            "sched.submit", kind="sched",
            attributes={"shard": shard, "class": "batch",
                        "model": model_id, "runs": runs})
        try:
            yield span
        finally:
            span.finish()

    # -- tenancy -------------------------------------------------------------

    def attach_tenants(self, registry: Any) -> None:
        """Share one tenancy registry across every shard dispatcher.

        Each dispatcher weights its DRR lanes by the registry's
        per-tenant weights and reports service back into the registry's
        fairness accounting.
        """
        self.tenants = registry
        for lb in self.lbs:
            lb.dispatcher.attach_tenants(registry)

    def tenant_depths(self) -> Dict[str, int]:
        """Per-tenant waiting items, summed over shards and services."""
        merged: Dict[str, int] = {}
        for lb in self.lbs:
            for tenant, depth in lb.dispatcher.tenant_depths().items():
                merged[tenant] = merged.get(tenant, 0) + depth
        return merged

    # -- estate views --------------------------------------------------------

    def location_of(self, instance, default: str = "unknown") -> str:
        """Public location lookup (the admin console's view)."""
        return self.multicloud.location_of(instance, default=default)

    @property
    def cloudbursting(self) -> bool:
        """Whether the estate holds public capacity: the ledger's word."""
        return self.ledger.bursting

    def depths(self) -> Dict[int, Dict[str, Dict[str, int]]]:
        """Per-shard, per-service, per-class queue depths."""
        return {shard: lb.dispatcher.depths()
                for shard, lb in enumerate(self.lbs)}

    def drain(self, instance):
        """Route an operator drain to the shard owning ``instance``."""
        for lb in self.lbs:
            if lb._service_of(instance) is not None:
                return lb.drain(instance)
        return self.lbs[0].drain(instance)


def _distribute(total: int, shards: int) -> List[int]:
    """Split ``total`` into ``shards`` near-equal non-negative parts."""
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]
