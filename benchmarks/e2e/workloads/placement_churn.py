"""placement_churn — the scheduling plane and the broker, nothing else.

``ShardedRouter.submit_session`` calls (70/20/10 interactive / workflow
/ batch, four tenants) into a warm one-shard estate of 512 replicas × 8
slots, held at 75% occupancy by ending the oldest session before each
submit.  The simulated clock advances 2.5 s per 500 submits, so
autoscale / drain passes run inside the timed section; telemetry is
off.

Op = one placement.  Its simulated latency is submit to the
``session.assign`` push arriving on the user's WebSocket — the paper's
"RB responds with an address of a cloud instance" as the browser sees
it: ``UserSession.wait_time`` (0 s while a replica has room) plus one
push delivery.  The request path (transport, REST) does no work here,
so this is the bypass workload for every request-path change and the
one where replica-choice cost shows undiluted.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List

from repro.broker import (
    HealthMonitor,
    LoadBalancer,
    ManagedService,
    PrivateFirstPolicy,
    SessionTable,
)
from repro.cloud import (
    MEDIUM,
    SMALL,
    AwsCloud,
    ImageKind,
    ImageStore,
    MultiCloud,
    OpenStackCloud,
)
from repro.perf.keys import content_key
from repro.sched import CapacityLedger, PriorityClass, ShardedRouter
from repro.services import Network, RestApi, RestServer
from repro.services.channels import PushGateway
from repro.sim import RandomStreams, Simulator
from repro.tenancy import TenantRegistry, TenantSpec

from benchmarks.e2e.workloads.common import (
    Outcome,
    fresh_ids,
    placement_stats,
    scaled,
)

NAME = "placement_churn"
WHY = ("sched and broker do all the work at 512 replicas and the request "
       "path does none: replica-choice cost undiluted, request-path bypass")

REPLICAS = 512
SLOTS = 8
OCCUPANCY = 0.75
#: placements at scale 1
SUBMITS = 20_000
#: submits per clock advance, and the advance in simulated seconds
BATCH = 500
ADVANCE = 2.5
TENANTS = tuple(f"org-{i}" for i in range(4))
SERVICE = "portal"


@dataclass
class Context:
    sim: Simulator
    streams: RandomStreams
    sessions: SessionTable
    router: ShardedRouter
    lb: LoadBalancer
    ledger: CapacityLedger
    registry: TenantRegistry
    gateway: PushGateway
    providers: Any
    submits: int


def build(seed: int, scale: float) -> Context:
    """Boot all 512 replicas and the gateway host; wait until they serve."""
    fresh_ids()
    sim = Simulator()
    streams = RandomStreams(seed)
    private = OpenStackCloud(
        sim, total_vcpus=MEDIUM.vcpus * REPLICAS + SMALL.vcpus,
        streams=streams)
    public = AwsCloud(sim, streams=streams)
    multi = MultiCloud()
    multi.register_compute("private", private)
    multi.register_compute("public", public)
    network = Network(sim, streams=streams)
    sessions = SessionTable(sim)
    ledger = CapacityLedger(sim)
    lb = LoadBalancer(
        sim, multi, network, sessions, PrivateFirstPolicy(),
        monitor=HealthMonitor(sim, interval=1.0e9, window=3),
        shard_id=0, ledger=ledger)
    router = ShardedRouter(sim, [lb], ledger=ledger, multicloud=multi)
    registry = TenantRegistry(specs=[TenantSpec(t) for t in TENANTS])
    router.attach_tenants(registry)
    images = ImageStore()
    api = RestApi(SERVICE)
    api.get("/ping", lambda request, params: {"pong": True})
    router.manage(ManagedService(
        name=SERVICE,
        image=images.create(SERVICE, ImageKind.GENERIC, size_gb=1.0),
        flavor=MEDIUM,
        make_server=lambda inst: RestServer(sim, api, inst).bind(network),
        sessions_per_replica=SLOTS,
        min_replicas=REPLICAS, max_replicas=REPLICAS))
    gateway_host = private.launch(
        images.create("broker-host", ImageKind.GENERIC, size_gb=1.0), SMALL)
    sim.run(until=900.0)
    serving = sum(len(s.serving()) for s in router.services())
    if serving != REPLICAS or not gateway_host.is_serving:
        raise RuntimeError(f"warm-up: {serving}/{REPLICAS} replicas serving")
    gateway = PushGateway(sim, gateway_host, streams=streams)
    return Context(sim, streams, sessions, router, lb, ledger, registry,
                   gateway, (private, public), scaled(SUBMITS, scale, BATCH))


def drive(ctx: Context) -> Dict[str, Any]:
    """Submit, end the oldest, advance the clock; repeat."""
    sim, router, sessions = ctx.sim, ctx.router, ctx.sessions
    mix = ctx.streams.get("bench.mix")
    target = int(REPLICAS * SLOTS * OCCUPANCY)
    assigned_at: Dict[str, float] = {}

    def on_push(payload: Dict[str, Any]) -> None:
        if payload.get("type") == "session.assign":
            assigned_at.setdefault(payload["sessionId"], sim.now)

    # one WebSocket per tenant carries that tenant's session updates
    channels = []
    for tenant in TENANTS:
        channel = ctx.gateway.connect(tenant)
        channel.on_client_message(on_push)
        channels.append(channel)

    started = sim.now
    live: Deque[Any] = deque()
    submitted: List[Any] = []
    for k in range(ctx.submits):
        if len(live) >= target:
            live.popleft().end()
        draw = mix.random()
        priority = (PriorityClass.INTERACTIVE if draw < 0.7 else
                    PriorityClass.WORKFLOW if draw < 0.9 else
                    PriorityClass.BATCH)
        lane = k % len(TENANTS)
        session = sessions.create(f"user-{k}", channel=channels[lane],
                                  tenant=TENANTS[lane])
        router.submit_session(session, SERVICE, priority=priority)
        live.append(session)
        submitted.append(session)
        if (k + 1) % BATCH == 0:
            sim.run(until=sim.now + ADVANCE)
    sim.run(until=sim.now + ADVANCE)
    return {"started": started, "submitted": submitted,
            "assigned_at": assigned_at}


def collect(ctx: Context, raw: Dict[str, Any]) -> Outcome:
    """Read outputs, checks and layer stats off the settled estate."""
    sim, sessions = ctx.sim, ctx.sessions
    submitted, assigned_at = raw["submitted"], raw["assigned_at"]
    target = int(REPLICAS * SLOTS * OCCUPANCY)
    latencies = [assigned_at[s.session_id] - s.created_at
                 for s in submitted if s.session_id in assigned_at]
    stats = {
        **placement_stats([ctx.lb], ctx.ledger, ctx.providers),
        "tenancy.jain": ctx.registry.fairness(),
        "services.channels.deliveries_per_op":
            ctx.gateway.metrics.snapshot().get("delivery_latency.count", 0.0)
            / max(1, len(latencies)),
    }
    active = sessions.active()
    per_replica = Counter(s.instance.instance_id for s in active)
    outputs = {
        "placed": len(latencies),
        "active": len(active),
        "waiting": len(sessions.waiting()),
        "per_replica": content_key(dict(per_replica)),
        "table": content_key(sorted(
            (s.user_name, s.state.value, s.wait_time,
             s.instance.instance_id if s.instance else None)
            for s in submitted)),
        "served_by_tenant": sorted(ctx.registry.served.items()),
    }
    checks = {
        "occupancy held at target": len(active) == min(target, ctx.submits),
        "no session left waiting": not sessions.waiting(),
        "sessions sit only on serving replicas": set(per_replica) <= {
            inst.instance_id
            for inst in ctx.lb.service(SERVICE).serving()},
    }
    return Outcome(
        sim=sim, attempted=ctx.submits, failed=ctx.submits - len(latencies),
        latencies=latencies,
        makespan=max(assigned_at.values(), default=raw["started"])
        - raw["started"],
        outputs=outputs, checks=checks, stats=stats)
