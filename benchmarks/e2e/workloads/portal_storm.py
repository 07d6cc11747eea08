"""portal_storm — the storm-surge journey with every plane on.

Closed loop: 40 portal users on a full :class:`~repro.core.evop.Evop`
(two control-plane shards, telemetry every 5 s, data plane, four equal
tenants with token buckets, the read API), each connecting through the
Resource Broker, loading the LEFT modelling widget and then looping
{two scenario runs, one dashboard refresh, 20 s think}.  Sensor feeds
push over the broker's gateway to every open widget, and one vector
ensemble sweep lands under ``batch_submission`` 40% of the way in.

Op = one widget model run; its simulated latency is the run's round
trip as the user sees it.  This is the only workload where every layer
appears, so it is the no-regression net for cross-plane refactors and
shows request-path gains diluted by the model kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro import Evop, EvopConfig
from repro.dataplane.views import view_fingerprint
from repro.hydrology.vectorized import HAVE_NUMPY, TopmodelEnsemble
from repro.obs.hub import obs_of
from repro.perf import EnsembleRunner, RunCache, forcing_digest
from repro.perf.keys import content_key
from repro.portal.widgets import CatchmentDashboard, ModellingWidget
from repro.tenancy import TenantSpec

from benchmarks.e2e.workloads.common import (
    Outcome,
    dataplane_stats,
    fresh_ids,
    placement_stats,
    resilience_stats,
    rest_errors,
    scaled,
    views_match_streams,
)

NAME = "portal_storm"
WHY = ("every plane on at once: the no-regression net for cross-plane "
       "refactors; request-path gains show diluted by the model kernel")

USERS = 40
#: simulated seconds users keep issuing runs at scale 1
HORIZON = 1600.0
#: parameter sets of the batch sweep at scale 1
SWEEP_SETS = 500
THINK = 20.0
FEED_INTERVAL = 5.0
TENANTS = tuple(f"org-{i}" for i in range(4))
RANGES = {"m": (5.0, 60.0), "td": (0.1, 5.0), "q0_mm_h": (0.02, 1.0)}


@dataclass
class Context:
    evop: Evop
    runner: EnsembleRunner
    draws: List[Dict[str, float]]
    horizon: float


def build(seed: int, scale: float) -> Context:
    """Boot the estate, switch every plane on, wait out the replica boots."""
    if not HAVE_NUMPY:
        raise RuntimeError("portal_storm needs NumPy for its vector sweep")
    fresh_ids()
    evop = Evop(EvopConfig(seed=seed, shards=2, telemetry_interval=5.0,
                           truth_days=10, storm_day=5)).bootstrap()
    # buckets deep enough that a well-behaved tenant is never throttled:
    # the limiter does its work on every request and refuses none
    evop.enable_tenancy(specs=[TenantSpec(t, rate=20.0, burst=40.0)
                               for t in TENANTS])
    evop.enable_dataplane()
    evop.expose_read_api()
    evop.run_for(600.0)

    tool = evop.left()
    forcing = evop.truths[tool.catchment.name]["rainfall"]
    ensemble = TopmodelEnsemble.prepare(tool.catchment.topmodel(), forcing)
    rng = evop.streams.get("bench.sweep")
    draws = [{name: rng.uniform(lo, hi) for name, (lo, hi) in RANGES.items()}
             for _ in range(scaled(SWEEP_SETS, scale, floor=4))]
    runner = EnsembleRunner(
        ensemble, model_id=f"topmodel:{tool.catchment.name}",
        forcing=forcing_digest(forcing), cache=RunCache(max_entries=2048),
        sim=evop.sim, scheduler=evop.sched, backend="vector",
        # looked up per call, so a traced pass sees the class-level wrapper
        batch=lambda sets: ensemble.batch(sets))
    return Context(evop, runner, draws, max(60.0, HORIZON * scale))


def drive(ctx: Context) -> Dict[str, Any]:
    """Run the storm; returns once every user's last run has settled."""
    evop, sim = ctx.evop, ctx.evop.sim
    scraper_start = evop.telemetry.scraper.host_seconds
    tool = evop.left()
    catchment = tool.catchment.name
    started = sim.now
    end = started + ctx.horizon
    latencies: List[float] = []
    settled: List[float] = []
    counts = {"attempted": 0, "failed": 0, "lag_max": 0, "loaded": 0}
    widgets: List[ModellingWidget] = []
    dashboards: List[CatchmentDashboard] = []
    sweep: Dict[str, Any] = {}

    def read_address():
        for service in evop.sched.services():
            if service.name == "read" and service.serving():
                return service.serving()[0].address
        return None

    def user(index: int):
        session = evop.rb.connect(f"user-{index}", tool.service_name,
                                  tenant=TENANTS[index % len(TENANTS)])
        widget = ModellingWidget(
            sim, evop.network, session, f"topmodel-{catchment}",
            flood_threshold_mm_h=tool.catchment.flood_threshold_mm_h,
            resilient=evop.resilient)
        dashboard = CatchmentDashboard(sim, evop.network, read_address,
                                       catchment, resilient=evop.resilient)
        widgets.append(widget)
        dashboards.append(dashboard)
        if (yield widget.load()):
            counts["loaded"] += 1
        scenarios = widget.scenario_buttons
        press = index
        while sim.now < end:
            for _ in range(2):
                widget.select_scenario(scenarios[press % len(scenarios)])
                press += 1
                counts["attempted"] += 1
                run = yield widget.run(duration_hours=96)
                if run is None:
                    counts["failed"] += 1
                else:
                    latencies.append(run.round_trip)
                    settled.append(run.completed_at)
            yield dashboard.refresh()
            yield THINK

    def feed():
        sensors = [tool.sensors.sensor(p) for p in tool.sensors.procedures()]
        while sim.now < end:
            yield FEED_INTERVAL
            for sensor in sensors:
                reading = sensor.observe_now()
                evop.rb.gateway.broadcast({
                    "channel": "obs", "procedure": reading.procedure_id,
                    "time": reading.time, "value": reading.value})
            counts["lag_max"] = max(counts["lag_max"], evop.dataplane.lag())

    def batch_sweep():
        yield 0.4 * ctx.horizon
        sweep["results"] = ctx.runner.run_many(ctx.draws)

    users = [sim.spawn(user(i), name=f"bench.user-{i}") for i in range(USERS)]
    sim.spawn(feed(), name="bench.feed")
    sim.spawn(batch_sweep(), name="bench.sweep")
    sim.run(until=end)
    while any(proc.alive for proc in users):
        sim.run(until=sim.now + 10.0)
    return {"started": started, "latencies": latencies, "settled": settled,
            "counts": counts, "widgets": widgets, "dashboards": dashboards,
            "sweep": sweep.get("results", []),
            "scraper_host_s":
                evop.telemetry.scraper.host_seconds - scraper_start}


def collect(ctx: Context, raw: Dict[str, Any]) -> Outcome:
    """Drain the pipeline, then read outputs, checks and layer stats."""
    evop, sim = ctx.evop, ctx.evop.sim
    counts, widgets, dashboards = \
        raw["counts"], raw["widgets"], raw["dashboards"]
    evop.dataplane.pump()
    plane = evop.dataplane
    ops = counts["attempted"] - counts["failed"]
    runner_stats = ctx.runner.stats()
    results = raw["sweep"]
    gateway = evop.rb.gateway.metrics.snapshot()
    errors = sum(len(w.errors) for w in widgets) \
        + sum(len(d.errors) for d in dashboards)
    stats = {
        **placement_stats(evop.sched.lbs, evop.ledger,
                          (evop.private, evop.public)),
        **resilience_stats(evop.resilience_metrics),
        **dataplane_stats(plane, counts["lag_max"]),
        "tenancy.throttled": float(evop.ratelimit.throttled),
        "tenancy.jain": evop.tenants.fairness(),
        "cloud.cost_usd": evop.cost_report()["total"],
        "perf.cache_hit_ratio": runner_stats["hit_rate"],
        "perf.chunks_dispatched": float(runner_stats["chunks_dispatched"]),
        "services.channels.deliveries_per_op":
            gateway.get("delivery_latency.count", 0.0) / max(1, ops),
        "services.rest.status_5xx": rest_errors(sim),
        "obs.series": float(evop.telemetry.store.series_count()),
        "obs.events_dropped": float(obs_of(sim).events.dropped),
        "portal.widget_errors": float(errors),
    }
    outputs = {
        "runs_per_user": [len(w.runs) for w in widgets],
        "peaks": content_key([[run.outputs["peak_mm_h"] for run in w.runs]
                              for w in widgets]),
        "sessions": sorted(
            (s.user_name, s.state.value,
             s.instance.instance_id if s.instance else None, s.wait_time)
            for s in evop.sessions.all()),
        "views": {view.name: view_fingerprint(view) for view in plane.views},
        "sweep": content_key([round(max(r.flow.values), 9)
                              for r in results]),
        "instances": evop.instances_by_location(),
        "cost": evop.cost_report()["total"],
    }
    checks = {
        "every widget loaded": counts["loaded"] == USERS,
        "no widget or dashboard errors": errors == 0,
        "sweep returned every set": len(results) == len(ctx.draws),
        "stats views equal a fresh fold": views_match_streams(plane),
    }
    return Outcome(
        sim=sim, attempted=counts["attempted"], failed=counts["failed"],
        latencies=raw["latencies"],
        makespan=max(raw["settled"], default=raw["started"]) - raw["started"],
        outputs=outputs, checks=checks, stats=stats,
        model_sets=ops + int(runner_stats["misses"]),
        scraper_host_s=raw["scraper_host_s"])
