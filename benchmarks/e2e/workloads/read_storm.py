"""read_storm — transport + REST + sim kernel + view reads, nothing else.

Closed loop: 64 readers issue GETs against one read-API replica over a
frozen archive (four catchments, 2 000 observations each, folded into
the materialized views during set-up): 80% ``/v1/catchments/{id}/stats``
— half of them revalidating with ``If-None-Match`` for a ``304`` — and
20% cursor-paged ``/v1/observations/latest``.

Op = one GET; its simulated latency is send-to-response as the reader
sees it.  Sched, broker, hydrology, durable and the data-plane write
side do no work here, so a request-path change must show on this
workload and must not show on ``placement_churn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cloud import MEDIUM
from repro.cloud.storage import BlobStore
from repro.dataplane import DataPlane
from repro.dataplane.views import view_fingerprint
from repro.perf.keys import content_key
from repro.services.readapi import build_read_api
from repro.services.rest import RestServer
from repro.services.transport import (
    HttpRequest,
    HttpResponse,
    Network,
    RequestTimeout,
)
from repro.sim import RandomStreams, Simulator

from benchmarks.e2e.workloads.common import (
    CATCHMENTS,
    Outcome,
    boot_hosts,
    busy_seconds,
    dataplane_stats,
    fresh_ids,
    rest_errors,
    scaled,
    views_match_streams,
)

NAME = "read_storm"
WHY = ("GETs over frozen views: transport, REST, kernel and view reads do "
       "all the work; sched, broker, model and the write side are bypassed")

READERS = 64
#: GETs at scale 1
REQUESTS = 50_000
#: archive rows per catchment at scale >= 0.2 (smaller only for smoke runs)
ARCHIVE_ROWS = 2_000
PROCEDURES_PER_CATCHMENT = 8
PAGE_LIMIT = 10


@dataclass
class Context:
    sim: Simulator
    streams: RandomStreams
    plane: DataPlane
    network: Network
    server: RestServer
    requests: int


def build(seed: int, scale: float) -> Context:
    """Fold a seeded archive into the views and bind one read replica."""
    fresh_ids()
    sim = Simulator()
    streams = RandomStreams(seed)
    plane = DataPlane(sim, BlobStore(sim, name="read-storm"),
                      consumer_count=2)
    rows = min(ARCHIVE_ROWS, scaled(5 * ARCHIVE_ROWS, scale, floor=200))
    noise = streams.get("bench.archive")
    for ci, catchment in enumerate(CATCHMENTS):
        for i in range(rows):
            procedure = f"{catchment}-level-{i % PROCEDURES_PER_CATCHMENT}"
            plane.outbox.record(
                f"obs.{catchment}", "observation", key=procedure,
                payload={"procedure": procedure,
                         "observedProperty": "river-level",
                         "time": i * 900.0,
                         "value": 2.0 + math.sin(0.37 * i + ci)
                         + noise.uniform(-0.1, 0.1),
                         "uom": "m", "catchment": catchment})
        # drain per catchment so the outbox never holds the whole archive
        plane.pump(rounds=rows)
    if plane.lag() or plane.outbox.depth():
        raise RuntimeError("archive did not drain into the views")
    network = Network(sim, streams=streams)
    host = boot_hosts(sim, streams, {"read": MEDIUM})["read"]
    server = RestServer(sim, build_read_api(sim, plane), host).bind(network)
    return Context(sim, streams, plane, network, server,
                   scaled(REQUESTS, scale, floor=READERS))


def drive(ctx: Context) -> Dict[str, Any]:
    """The storm: every reader works through its seeded request plan."""
    sim, network, address = ctx.sim, ctx.network, ctx.server.address
    share, extra = divmod(ctx.requests, READERS)
    plan_rng = ctx.streams.get("bench.readers")
    plans: List[List[Tuple[float, int]]] = [
        [(plan_rng.random(), plan_rng.randrange(len(CATCHMENTS)))
         for _ in range(share + (1 if r < extra else 0))]
        for r in range(READERS)]
    latencies: List[float] = []
    settled = [sim.now]
    statuses: Dict[Any, int] = {}
    bodies: Dict[str, Any] = {}
    pages = {"followed": 0, "wrapped": 0}

    def reader(plan: List[Tuple[float, int]]):
        etags: Dict[str, str] = {}
        cursor = None
        for draw, ci in plan:
            sent = sim.now
            good = False
            if draw < 0.8:
                catchment = CATCHMENTS[ci]
                headers = {}
                if draw < 0.4 and catchment in etags:
                    headers["If-None-Match"] = etags[catchment]
                response = yield network.request(address, HttpRequest(
                    "GET", f"/v1/catchments/{catchment}/stats",
                    headers=headers))
                if isinstance(response, HttpResponse):
                    if response.status == 200:
                        etags[catchment] = response.headers["ETag"]
                        bodies.setdefault(catchment, response.body)
                    good = response.status in (200, 304)
            else:
                query = {"limit": str(PAGE_LIMIT)}
                if cursor:
                    query["cursor"] = cursor
                response = yield network.request(address, HttpRequest(
                    "GET", "/v1/observations/latest", query=query))
                if isinstance(response, HttpResponse) \
                        and response.status == 200:
                    good = True
                    cursor = response.body["nextCursor"]
                    pages["followed" if cursor else "wrapped"] += 1
            key = response.status if isinstance(response, HttpResponse) \
                else type(response).__name__
            statuses[key] = statuses.get(key, 0) + 1
            if good:
                latencies.append(sim.now - sent)
                settled[0] = sim.now

    started = sim.now
    for plan in plans:
        sim.spawn(reader(plan), name="bench.reader")
    sim.run()
    return {"started": started, "settled": settled[0],
            "latencies": latencies, "statuses": statuses, "bodies": bodies,
            "pages": pages}


def collect(ctx: Context, raw: Dict[str, Any]) -> Outcome:
    """Read outputs, checks and layer stats off the settled estate."""
    sim, plane = ctx.sim, ctx.plane
    statuses, bodies, pages = raw["statuses"], raw["bodies"], raw["pages"]
    ok = len(raw["latencies"])
    stats = {
        **dataplane_stats(plane, plane.lag()),
        "services.transport.timeouts":
            float(statuses.get(RequestTimeout.__name__, 0)),
        "services.rest.not_modified_ratio":
            statuses.get(304, 0) / max(1, ctx.requests),
        "services.rest.status_5xx": rest_errors(sim),
        "cloud.busy_sim_s": busy_seconds([ctx.server.instance]),
    }
    outputs = {
        "statuses": sorted((str(k), v) for k, v in statuses.items()),
        "pages": pages,
        "bodies": content_key(bodies),
        "views": {view.name: view_fingerprint(view) for view in plane.views},
        "served": ctx.server.requests_handled,
    }
    checks = {
        "every catchment served": set(bodies) == set(CATCHMENTS),
        "served stats equal the view": all(
            bodies[c] == plane.stats.stats(c) for c in bodies),
        "stats views equal a fresh fold": views_match_streams(plane),
        "pagination followed and wrapped":
            pages["followed"] > 0 and pages["wrapped"] > 0,
    }
    return Outcome(sim=sim, attempted=ctx.requests,
                   failed=ctx.requests - ok, latencies=raw["latencies"],
                   makespan=raw["settled"] - raw["started"],
                   outputs=outputs, checks=checks, stats=stats)
