"""The Resource Broker: the portal's doorway to the infrastructure.

"Once a user navigates to one of the modelling widgets, a connection is
created with the Resource Broker ... RB responds with an address of a
cloud instance that is suitable for the type of computation required,
along with some session information.  This communication is done ...
using HTML5 WebSockets."

The RB owns the push gateway (hosted on its own instance), creates
sessions, submits them to the scheduling plane's router — the only
door to placement — and exposes prefetch / preemptive-bootstrap hooks
("prefetching data records and preemptively bootstrapping cloud
instances as soon as a user visits the portal").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.broker.load_balancer import LoadBalancer
from repro.broker.sessions import SessionTable, UserSession
from repro.obs.hub import obs_of
from repro.services.channels import PushGateway
from repro.sim import MetricsRegistry, Simulator
from repro.tenancy.context import DEFAULT_TENANT


class ResourceBroker:
    """Front door for portal sessions.

    Sessions are submitted through ``router`` (a
    :class:`~repro.sched.router.ShardedRouter`): rendezvous-routed to a
    control-plane shard at interactive priority.
    """

    def __init__(self, sim: Simulator, router: Any,
                 sessions: SessionTable, gateway: PushGateway):
        self.sim = sim
        self.router = router
        self.sessions = sessions
        self.gateway = gateway
        self.metrics = MetricsRegistry(sim, namespace="rb")

    def connect(self, user_name: str, service_name: str,
                channel: Optional[Any] = None,
                tenant: str = DEFAULT_TENANT) -> UserSession:
        """Open a session for ``user_name`` against ``service_name``.

        Establishes a WebSocket connection (unless the caller brings its
        own channel), creates the session, and submits it to the
        scheduling plane.  The assignment — immediate or after a boot —
        arrives as a ``session.assign`` push on the channel.  ``tenant``
        is the billing principal: it selects the session's weighted-fair
        lane in the class queues and labels its trace.
        """
        if channel is None:
            channel = self.gateway.connect(user_name)
        session = self.sessions.create(user_name, channel,
                                       purpose=service_name, tenant=tenant)
        # the session span is the root of this user's journey trace; every
        # widget request and its server-side work nests beneath it
        hub = obs_of(self.sim)
        span = hub.tracer.start_span(
            f"rb.session {service_name}", kind="session",
            attributes={"user": user_name, "session": session.session_id,
                        "tenant": tenant})
        session.trace_context = span.context
        session.trace_span = span
        hub.events.emit("rb.connect", user=user_name, service=service_name,
                        session=session.session_id, tenant=tenant)
        self.metrics.counter("connects").increment()
        self.router.submit_session(session, service_name)
        return session

    def disconnect(self, session: UserSession) -> None:
        """End a session (the WebSocket's session-end sensing path).

        The LB's next autoscale pass observes the lowered demand — this
        is how "sensing when user sessions end" feeds load balancing.
        """
        session.end()
        obs_of(self.sim).events.emit("rb.disconnect",
                                     session=session.session_id)
        self.metrics.counter("disconnects").increment()

    # -- QoS warm-up hooks ----------------------------------------------------

    def preboot(self, service_name: str, replicas: int,
                warm_seconds: float = 900.0) -> None:
        """Preemptively bootstrap replicas ahead of expected demand.

        The paper's flash-crowd mitigation: start instances "as soon as
        a user visits the portal", trading a little cost for much lower
        first-interaction latency.  The pool floor is raised for
        ``warm_seconds`` so the autoscaler doesn't reap the still-idle
        warm replicas before the demand they anticipate arrives.  The
        warm capacity is spread over every shard hosting a slice of the
        service.
        """
        slices = self.router.slices(service_name)
        shares = _spread(replicas, len(slices))
        for (lb, service), share in zip(slices, shares):
            self._preboot_slice(lb, service, share, warm_seconds)
        obs_of(self.sim).events.emit("rb.preboot", service=service_name,
                                     replicas=replicas)
        self.metrics.counter("preboots").increment(replicas)

    def _preboot_slice(self, lb: LoadBalancer, service: Any,
                       replicas: int, warm_seconds: float) -> None:
        original_floor = service.min_replicas
        target = max(service.projected_size(), original_floor, replicas)
        service.min_replicas = min(target, service.max_replicas)
        while service.projected_size() < service.min_replicas:
            if lb.scale_up(service) is None:
                break

        def restore_floor() -> None:
            service.min_replicas = original_floor

        self.sim.schedule(warm_seconds, restore_floor)

    def prefetch(self, container: Any, keys: List[str],
                 cache: Dict[str, Any]) -> int:
        """Prefetch data records into a cache; returns how many loaded."""
        loaded = 0
        for key in keys:
            if key not in cache and container.exists(key):
                cache[key] = container.get(key).payload
                loaded += 1
        self.metrics.counter("prefetched").increment(loaded)
        return loaded


def _spread(total: int, buckets: int) -> List[int]:
    """Split ``total`` into ``buckets`` near-equal non-negative parts."""
    base, extra = divmod(total, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]
