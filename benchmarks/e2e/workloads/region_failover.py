"""region_failover — the only fault workload: kill the leader region.

``GeoEstate(regions=3)``: 8 users per region poll ``/v1/ping`` through
a patient :class:`ResilientClient` every 3 s, a warehouse writer lands
a dataset in the leader's region every 2 s under the ``Replicator``,
and session churn is admitted through the ``GeoLedger`` leader.  The
leader region is killed outright (instances, storage, control plane) a
third of the way in and healed at two thirds.

Op = one poll; its simulated latency is call to final response, retries
included, and anything but a final 2xx is a failure.  The retry policy
is patient enough that the baseline loses no poll — the outage shows as
retries, re-election, RPO and the latency tail — so ``failed`` and
``sim_p99_s`` are free to move when failover gets worse.  This is the
only cover for ``geo`` + ``resilience`` under a fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List

from repro.cloud.errors import CloudError
from repro.geo import GeoEstate
from repro.hydrology.timeseries import TimeSeries
from repro.perf.keys import content_key
from repro.resilience import ResilientClient, RetryPolicy
from repro.services.transport import HttpRequest
from repro.sim import MetricsRegistry

from benchmarks.e2e.workloads.common import (
    Outcome,
    busy_seconds,
    fresh_ids,
    resilience_stats,
    rest_errors,
)

NAME = "region_failover"
WHY = ("leader region killed and healed under live polling: geo and "
       "resilience under a fault; the model and data plane are bypassed")

USERS_PER_REGION = 8
POLL_INTERVAL = 3.0
WRITE_INTERVAL = 2.0
CHURN_INTERVAL = 10.0
CHURN_LIVE = 6
#: simulated seconds of polling at scale 1 (24 users / 3 s => 15k polls)
HORIZON = 1875.0
REPLICATION_INTERVAL = 5.0
#: the failover coordinator's check period; the kill lands at a seeded
#: offset inside one period, so the detection window differs per seed
#: instead of the kill always coinciding with a check
FAILOVER_INTERVAL = 4.0
#: a browser tab that keeps retrying through a failover instead of
#: showing an error page: ~60 s of backoff budget before giving up
PATIENT = RetryPolicy(max_attempts=8, base_delay=1.0, max_delay=15.0,
                      deadline=120.0)


@dataclass
class Context:
    estate: GeoEstate
    horizon: float


def build(seed: int, scale: float) -> Context:
    """Three regions warm, geo control plane running, a leader elected."""
    fresh_ids()
    estate = GeoEstate(regions=3, private_vcpus=48,
                       replication_interval=REPLICATION_INTERVAL,
                       election_ttl=8.0, election_check=1.0,
                       failover_interval=FAILOVER_INTERVAL, seed=seed)
    estate.warm(until=150.0)
    if estate.election.leader() is None:
        raise RuntimeError("no leader elected during warm-up")
    return Context(estate, max(120.0, HORIZON * scale))


def drive(ctx: Context) -> Dict[str, Any]:
    """Poll, write and churn through the kill and the heal."""
    estate, sim = ctx.estate, ctx.estate.sim
    started = sim.now
    end = started + ctx.horizon
    kill_at = started + ctx.horizon / 3.0 + estate.streams.get(
        "bench.kill").uniform(0.0, FAILOVER_INTERVAL)
    regions = estate.regions()
    victim = estate.election.leader()
    metrics = MetricsRegistry(sim, namespace="resilience")
    client = ResilientClient(sim, estate.network, service="portal",
                             policy=PATIENT, streams=estate.streams,
                             hedge=False, metrics=metrics)
    latencies: List[float] = []
    settled = [started]
    counts = {"attempted": 0, "failed": 0, "writes_refused": 0,
              "churn_unplaced": 0}
    acked: List[Any] = []

    def poller(session, first_poll: float):
        # tabs opened at different moments: polls spread over the
        # interval instead of all 24 landing in the same instant
        yield first_poll
        while sim.now < end:
            counts["attempted"] += 1
            sent = sim.now
            response = yield client.call(
                lambda: session.instance_address,
                HttpRequest("GET", "/v1/ping"))
            if response.ok:
                latencies.append(sim.now - sent)
                settled[0] = sim.now
            else:
                counts["failed"] += 1
            yield POLL_INTERVAL

    def writer():
        k = 0
        while sim.now < end:
            region = estate.election.leader()
            key = f"obs-{k}"
            try:
                if region is None:
                    raise CloudError("no leader region to write to")
                estate.cells[region].warehouse.put_series(
                    key, TimeSeries(0.0, 1.0, [float(k)]))
                acked.append((key, sim.now, region))
            except CloudError:
                counts["writes_refused"] += 1
            k += 1
            yield WRITE_INTERVAL

    def churn():
        live: Deque[Any] = deque()
        k = 0
        while sim.now < end:
            live.append(estate.submit(f"churn-{k}",
                                      origin=regions[k % len(regions)]))
            k += 1
            if len(live) > CHURN_LIVE:
                leaving = live.popleft()
                counts["churn_unplaced"] += leaving.wait_time is None
                leaving.end()
            yield CHURN_INTERVAL

    users = [estate.submit(f"{region}-user-{i}", origin=region)
             for region in regions for i in range(USERS_PER_REGION)]
    stagger = estate.streams.get("bench.stagger")
    pollers = [sim.spawn(poller(user, stagger.uniform(0.0, POLL_INTERVAL)),
                         name=f"bench.poll.{user.user_name}")
               for user in users]
    sim.spawn(writer(), name="bench.writer")
    sim.spawn(churn(), name="bench.churn")
    estate.injector.region_outage_at(kill_at - sim.now, victim,
                                     duration=ctx.horizon / 3.0)
    sim.run(until=end)
    while any(proc.alive for proc in pollers):
        sim.run(until=sim.now + 10.0)
    return {"started": started, "settled": settled[0], "kill_at": kill_at,
            "victim": victim, "latencies": latencies, "counts": counts,
            "acked": acked, "users": users, "metrics": metrics}


def collect(ctx: Context, raw: Dict[str, Any]) -> Outcome:
    """RPO, re-election and replication lag as the operator reads them."""
    estate, sim = ctx.estate, ctx.estate.sim
    counts, kill_at, victim = raw["counts"], raw["kill_at"], raw["victim"]
    survivors = [r for r in estate.regions() if r != victim]

    def readable(region: str, key: str) -> bool:
        try:
            return estate.cells[region].warehouse.exists(key)
        except CloudError:      # the region's store is still down
            return False

    # RPO: age at the kill of the youngest victim-region write that
    # every survivor holds
    before_kill = [(key, at) for key, at, region in raw["acked"]
                   if region == victim and at <= kill_at]
    survived = [at for key, at in before_kill
                if all(readable(region, key) for region in survivors)]
    # nothing survived: everything written since the start is lost
    rpo = kill_at - (max(survived) if survived else raw["started"])
    reelected = [at for at, *_ in estate.election.elections if at > kill_at]
    report = estate.failover.reports[-1] if estate.failover.reports else None
    ops = counts["attempted"] - counts["failed"]
    cells = estate.cells.values()
    stats = {
        **resilience_stats(raw["metrics"]),
        "geo.rpo_sim_s": rpo,
        "geo.reelection_sim_s":
            (reelected[0] - kill_at) if reelected else 0.0,
        # steady state only: post-heal catch-up ships blobs whose age
        # reflects the outage, not the replication cadence
        "geo.max_replication_lag_sim_s": max(
            (r.lag for r in estate.replicator.shipped if r.time <= kill_at),
            default=0.0),
        "geo.ledger_overcommits": float(estate.geo_ledger.overcommits),
        "sched.shed": float(sum(
            sum(lb.dispatcher.shed_counts().values())
            for cell in cells for lb in cell.lbs)),
        "sched.quota_refused": float(estate.geo_ledger.refusals),
        "services.rest.status_5xx": rest_errors(sim),
        "cloud.busy_sim_s": busy_seconds(
            inst for cell in cells for provider in cell.providers
            for inst in provider.instances()),
    }
    outputs = {
        "victim": victim,
        "leader_after": estate.election.leader(),
        "term": estate.election.term,
        "writes_acked": len(raw["acked"]),
        "writes_refused": counts["writes_refused"],
        "rpo": rpo,
        "users": content_key(sorted(
            (s.user_name, s.state.value, len(s.migrations))
            for s in raw["users"])),
        "detached": report.sessions_detached if report else None,
        "replaced": report.sessions_replaced if report else None,
        "churn_unplaced": counts["churn_unplaced"],
        "no_leader_refusals": estate.geo_ledger.no_leader_refusals,
    }
    checks = {
        "leadership moved off the killed region":
            bool(reelected) and estate.election.leader() is not None,
        "capacity never double-committed":
            estate.geo_ledger.overcommits == 0,
        "every evacuated session re-placed": report is not None
        and report.sessions_replaced == report.sessions_detached,
        "killed region rejoined": report is not None
        and report.restored_at is not None,
        "RPO within interval + write spacing":
            rpo <= REPLICATION_INTERVAL + WRITE_INTERVAL,
    }
    return Outcome(
        sim=sim, attempted=counts["attempted"], failed=counts["failed"],
        latencies=raw["latencies"],
        makespan=raw["settled"] - raw["started"], outputs=outputs,
        checks=checks, stats=stats)
