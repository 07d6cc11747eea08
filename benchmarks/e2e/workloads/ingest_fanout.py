"""ingest_fanout — the data plane's write side, beside live reads.

Open loop on the simulated clock: observations arrive on a seeded
Poisson schedule (40 per simulated second across four catchments) and
flow ``TransactionalOutbox.record`` → relay → ``EventStream.append`` →
two started ``ConsumerGroup``s → views.  Every 8th event is also
broadcast over a :class:`PushGateway` to 32 WebSocket subscribers, and
8 closed-loop readers poll the *changing* stats views with
``If-None-Match``.

Op = one event folded into its view; its simulated latency is
freshness — record time to visible in the view.  The generator is a
simulator process, so its lateness against the schedule is 0 by
construction (printed anyway).  Same ``dataplane`` and
``services.channels`` layers as ``read_storm`` used the other way: a
read-side cache that taxes the write path, or a log unification that
slows append, shows here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.cloud import MEDIUM, SMALL
from repro.cloud.storage import BlobStore
from repro.dataplane import DataPlane
from repro.dataplane.views import view_fingerprint
from repro.services.channels import PushGateway
from repro.services.readapi import build_read_api
from repro.services.rest import RestServer
from repro.services.transport import HttpRequest, HttpResponse, Network
from repro.sim import RandomStreams, Simulator

from benchmarks.e2e.workloads.common import (
    CATCHMENTS,
    Outcome,
    boot_hosts,
    busy_seconds,
    dataplane_stats,
    fresh_ids,
    rest_errors,
    views_match_streams,
)

NAME = "ingest_fanout"
WHY = ("writes beside reads: outbox, relay, streams, consumers, views and "
       "push fan-out carry the load; sched, broker and model are bypassed")

#: observations per simulated second
RATE = 40.0
#: simulated seconds of ingest at scale 1
HORIZON = 1000.0
SUBSCRIBERS = 32
BROADCAST_EVERY = 8
READERS = 8
READ_INTERVAL = 0.5
LAG_PROBE_INTERVAL = 5.0
PROCEDURES_PER_CATCHMENT = 8


@dataclass
class Context:
    sim: Simulator
    streams: RandomStreams
    plane: DataPlane
    network: Network
    server: RestServer
    gateway: PushGateway
    #: due time offsets of every observation, ascending
    schedule: List[float]
    horizon: float


def build(seed: int, scale: float) -> Context:
    """Start the pipeline, bind a read replica and a push gateway."""
    fresh_ids()
    sim = Simulator()
    streams = RandomStreams(seed)
    plane = DataPlane(sim, BlobStore(sim, name="ingest"), consumer_count=2)
    network = Network(sim, streams=streams)
    hosts = boot_hosts(sim, streams, {"read": MEDIUM, "gateway": SMALL})
    server = RestServer(sim, build_read_api(sim, plane),
                        hosts["read"]).bind(network)
    gateway = PushGateway(sim, hosts["gateway"], streams=streams)
    plane.start()
    # the feed does not begin in phase with the relay's 0.5 s poll
    sim.run(until=sim.now + streams.get("bench.phase").uniform(0.0, 0.5))
    horizon = max(30.0, HORIZON * scale)
    arrivals = streams.get("bench.arrivals")
    schedule: List[float] = []
    due = arrivals.expovariate(RATE)
    while due < horizon:
        schedule.append(due)
        due += arrivals.expovariate(RATE)
    return Context(sim, streams, plane, network, server, gateway,
                   schedule, horizon)


def drive(ctx: Context) -> Dict[str, Any]:
    """Replay the arrival schedule; readers and subscribers run beside it."""
    sim, plane = ctx.sim, ctx.plane
    started = sim.now
    end = started + ctx.horizon
    values = ctx.streams.get("bench.values")
    freshness: List[float] = []
    settled = [started]
    counts = {"lateness_max": 0.0, "pushed": 0, "lag_max": 0,
              "reads": 0, "not_modified": 0, "read_failures": 0}

    # the pipeline's own hook sees each delivered event before the views
    # fold it, at the simulated instant it becomes visible to readers
    def on_apply(event) -> None:
        if event.kind == "observation":
            freshness.append(sim.now - event.payload["time"])
            settled[0] = sim.now

    plane.apply_hook = on_apply

    def count_push(_payload) -> None:
        counts["pushed"] += 1

    for i in range(SUBSCRIBERS):
        ctx.gateway.connect(f"subscriber-{i}").on_client_message(count_push)

    def generator():
        for k, offset in enumerate(ctx.schedule):
            due = started + offset
            if due > sim.now:
                yield due - sim.now
            counts["lateness_max"] = max(counts["lateness_max"],
                                         sim.now - due)
            catchment = CATCHMENTS[k % len(CATCHMENTS)]
            procedure = f"{catchment}-level-" \
                f"{(k // len(CATCHMENTS)) % PROCEDURES_PER_CATCHMENT}"
            value = 2.0 + math.sin(0.01 * k) + values.uniform(-0.1, 0.1)
            plane.outbox.record(
                f"obs.{catchment}", "observation", key=procedure,
                payload={"procedure": procedure,
                         "observedProperty": "river-level",
                         "time": sim.now, "value": value, "uom": "m",
                         "catchment": catchment})
            if k % BROADCAST_EVERY == 0:
                ctx.gateway.broadcast({"channel": "obs",
                                       "procedure": procedure,
                                       "time": sim.now, "value": value})

    def reader(index: int):
        catchment = CATCHMENTS[index % len(CATCHMENTS)]
        etag = None
        while sim.now < end:
            response = yield ctx.network.request(
                ctx.server.address, HttpRequest(
                    "GET", f"/v1/catchments/{catchment}/stats",
                    headers={"If-None-Match": etag} if etag else {}))
            counts["reads"] += 1
            if isinstance(response, HttpResponse) \
                    and response.status in (200, 304, 404):
                etag = response.headers.get("ETag", etag)
                counts["not_modified"] += response.status == 304
            else:
                counts["read_failures"] += 1
            yield READ_INTERVAL

    def lag_probe():
        while sim.now < end:
            yield LAG_PROBE_INTERVAL
            counts["lag_max"] = max(counts["lag_max"], plane.lag())

    sim.spawn(generator(), name="bench.generator")
    for i in range(READERS):
        sim.spawn(reader(i), name=f"bench.reader-{i}")
    sim.spawn(lag_probe(), name="bench.lag-probe")
    # two relay/consumer ticks past the horizon settle the last arrivals
    sim.run(until=end + 2.0)
    plane.stop()
    return {"started": started, "settled": settled[0],
            "freshness": freshness, "counts": counts}


def collect(ctx: Context, raw: Dict[str, Any]) -> Outcome:
    """Read outputs, checks and layer stats off the stopped pipeline."""
    sim, plane = ctx.sim, ctx.plane
    freshness, counts = raw["freshness"], raw["counts"]
    attempted = len(ctx.schedule)
    gateway = ctx.gateway.metrics.snapshot()
    stats: Dict[str, float] = {
        **dataplane_stats(plane, counts["lag_max"]),
        "services.channels.deliveries_per_op":
            gateway.get("delivery_latency.count", 0.0)
            / max(1, len(freshness)),
        "services.rest.not_modified_ratio":
            counts["not_modified"] / max(1, counts["reads"]),
        "services.rest.status_5xx": rest_errors(sim),
        "cloud.busy_sim_s": busy_seconds(
            [ctx.server.instance, ctx.gateway.instance]),
    }
    outputs = {
        "events": attempted,
        "folded": len(freshness),
        "pushed": counts["pushed"],
        "reads": counts["reads"],
        "not_modified": counts["not_modified"],
        "lateness_max": counts["lateness_max"],
        "lag_max": counts["lag_max"],
        "views": {view.name: view_fingerprint(view) for view in plane.views},
    }
    checks = {
        "generator never ran late": counts["lateness_max"] == 0.0,
        "no reader failed": counts["read_failures"] == 0,
        "every broadcast reached every subscriber": counts["pushed"]
        == SUBSCRIBERS * len(range(0, attempted, BROADCAST_EVERY)),
        "nothing parked or left behind":
            plane.dlq.depth() == 0 and plane.lag() == 0,
        "stats views equal a fresh fold": views_match_streams(plane),
    }
    return Outcome(sim=sim, attempted=attempted,
                   failed=attempted - len(freshness), latencies=freshness,
                   makespan=raw["settled"] - raw["started"],
                   outputs=outputs, checks=checks, stats=stats)
