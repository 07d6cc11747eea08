"""OBS — the telemetry plane detects every fault class, cheaply.

The paper's engagement claim rests on stakeholders trusting a live
portal; at scale that means operators must see trouble before users do.
This bench replays the ``bench_failover`` fault schedule (crash, then
blackhole, then wedge-degrade, against deterministically chosen victims)
under protected user traffic and pins three claims about the
PR 6 telemetry plane:

1. **mean-time-to-detect** — for *every* fault class in the schedule,
   an ``obs.alert.firing`` transition follows the injection within the
   detection budget (burn-rate alerts on attempt availability and
   request latency, re-checked on the plane's evaluation cadence);
2. **overhead** — the scraper's own meter (host CPU inside every
   scrape tick, SLO evaluation included), read in windows of 64 scrapes
   so the figure has a spread, stays under 5 host-µs per scrape per
   series — an absolute, because a whole-arm CPU comparison against an
   identical telemetry-off run has noise the size of the scraper's cost;
   the telemetry-off arm stays for the claim only it can make: the same
   faults raise no alert without the plane;
3. **exemplar flow** — after the latency SLO breach, a trace exemplar
   retained by the ``request.duration`` histogram resolves to a full
   span tree through ``/v1/observability`` (ETag-revalidated on the
   second read).

``python -m benchmarks observability`` rewrites
``BENCH_observability.json``; under pytest the same ``run`` / ``check``
gate, write nothing, and hold the file's exact half equal to this run's.
"""

from benchmarks.e2e.workloads.common import fresh_ids
from benchmarks.harness import (
    assert_committed,
    once,
    print_table,
    spread,
    trace_summary,
)
from repro.core import Evop, EvopConfig
from repro.obs import obs_of
from repro.services.client import RestClient
from repro.services.transport import HttpRequest, HttpResponse

#: the bench_failover schedule: (delay after traffic starts, fault kind)
FAULT_SCHEDULE = ((120.0, "crash"), (600.0, "blackhole"),
                  (1080.0, "degrade"))
#: simulated seconds of protected user traffic under the schedule
HORIZON = 1800.0
#: a firing transition must follow each injection within this budget
DETECTION_BUDGET = 300.0
#: scraper host cost ceiling, µs per scrape per series: ~1.5 in the
#: committed BENCH_observability.json (512 scrapes of 84 series), so 3x
#: headroom for a slow box
SCRAPE_US_PER_SERIES_CEILING = 5.0
#: scrapes per reading of the scraper's meter
SCRAPE_WINDOW = 64


def run_arm(telemetry: bool, users: int = 32, poll_interval: float = 5.0):
    """One run of the fault schedule; telemetry on or off.

    Both arms do identical simulated work; the only difference is the
    scraper + SLO evaluation riding on top.  The exemplar probe (a
    telemetry-arm extra) runs after the scraper's meter has been read.
    """
    fresh_ids()     # the exemplar's trace id is a process-global counter
    evop = Evop(EvopConfig(
        truth_days=4, storm_day=2, private_vcpus=12,
        sessions_per_replica=4, min_replicas=2,
        autoscale_interval=10.0, seed=7,
        telemetry_interval=5.0 if telemetry else None,
    )).bootstrap()
    # the scraper's meter as it stood going into each tick: hooks run
    # inside the tick they follow, before it is added to the meter
    meter = []
    if telemetry:
        scraper = evop.telemetry.scraper
        scraper.on_scrape(lambda now: meter.append(scraper.host_seconds))
    evop.run_for(400.0)
    service = evop.lb.service("left-morland")
    process_id = "topmodel-morland"

    sessions = [evop.rb.connect(f"user-{i}", "left-morland")
                for i in range(users)]
    evop.run_for(60.0)

    def inject(kind: str):
        serving = service.serving()
        if not serving:
            return
        victim = serving[0]
        if kind == "crash":
            evop.injector.crash(victim)
        elif kind == "blackhole":
            evop.injector.blackhole(victim)
        elif kind == "degrade":
            evop.injector.degrade(victim, speed_multiplier=1e-6)

    for delay, kind in FAULT_SCHEDULE:
        evop.sim.schedule(delay, inject, kind)

    start = evop.sim.now

    def protected_user(session):
        client = RestClient(evop.sim, evop.network,
                            lambda: session.instance_address,
                            resilient=evop.resilient,
                            trace=session.trace_context)
        while evop.sim.now < start + HORIZON:
            yield client.describe_process(process_id)
            yield poll_interval

    for session in sessions:
        evop.sim.spawn(protected_user(session),
                       name=f"poll.{session.session_id}")
    evop.run_for(HORIZON + 300.0)

    hub = obs_of(evop.sim)
    injections = [f for f in evop.injector.injected
                  if f.kind in ("crash", "blackhole", "degrade")]
    firing = hub.events.events("obs.alert.firing")
    resolved = hub.events.events("obs.alert.resolved")

    faults = []
    for fault in injections:
        after = [e for e in firing if e.t >= fault.time]
        mttd = after[0].t - fault.time if after else None
        faults.append({
            "kind": fault.kind,
            "injected_at": round(fault.time, 1),
            "mttd_s": round(mttd, 1) if mttd is not None else None,
            "alert": after[0].fields.get("slo") if after else None,
        })

    out = {
        "faults": faults,
        "alerts_fired": len(firing),
        "alerts_resolved": len(resolved),
        "spans": None,
        "plane": None,
        "meter": None,
        "exemplar": None,
    }
    if telemetry:
        out["plane"] = evop.telemetry.snapshot()
        out["meter"] = meter + [scraper.host_seconds]
        out["exemplar"] = _probe_exemplar_api(evop)
        tracer = hub.tracer
        tracer.finish_open_spans()
        out["spans"] = list(tracer.spans())
    return out


def _probe_exemplar_api(evop):
    """Resolve a latency exemplar to a span tree over the wire.

    Boots the managed ``/v1/observability`` service, asks it for the
    worst ``request.duration`` exemplars above the latency-SLO
    threshold, follows the returned ``trace_id`` to the span tree, and
    revalidates the (immutable) tree with its ETag.
    """
    evop.expose_observability()
    evop.run_for(240.0)
    replicas = [s for s in evop.sched.services()
                if s.name == "observability"]
    serving = replicas[0].serving() if replicas else []
    if not serving:
        return {"error": "observability service failed to boot"}
    address = serving[0].address
    result = {}

    def probe():
        reply = yield evop.network.request(
            address, HttpRequest(
                "GET", "/v1/observability/exemplars/request.duration",
                query={"min": "5"}),
            timeout=30.0)
        if not (isinstance(reply, HttpResponse) and reply.ok):
            result["error"] = f"exemplars: {getattr(reply, 'status', reply)}"
            return
        exemplar = reply.body["exemplars"][0]
        result["trace_id"] = exemplar["trace_id"]
        result["value_s"] = round(exemplar["value"], 3)
        trace_path = f"/v1/observability/traces/{exemplar['trace_id']}"
        tree = yield evop.network.request(
            address, HttpRequest("GET", trace_path), timeout=30.0)
        if not (isinstance(tree, HttpResponse) and tree.ok):
            result["error"] = f"trace: {getattr(tree, 'status', tree)}"
            return
        result["span_count"] = len(tree.body["spans"])
        result["rendered_lines"] = len(tree.body["rendered"])
        etag = tree.headers.get("ETag")
        again = yield evop.network.request(
            address, HttpRequest("GET", trace_path,
                                 headers={"If-None-Match": etag}),
            timeout=30.0)
        result["revalidated_304"] = (isinstance(again, HttpResponse)
                                     and again.status == 304)

    evop.sim.spawn(probe(), name="obs.probe")
    evop.run_for(120.0)
    return result


def run():
    """Both arms and the printed report."""
    observed = run_arm(True)
    baseline = run_arm(False)

    # the asserted overhead is the scraper's own meter (this process's
    # CPU time around every scrape tick, SLO evaluation included — the
    # stopwatch's clock) per scrape per series, one reading per
    # SCRAPE_WINDOW scrapes
    plane, meter = observed["plane"], observed["meter"]
    assert len(meter) == plane["scrapes"] + 1, (len(meter), plane["scrapes"])
    per_series = spread(
        [(meter[i + SCRAPE_WINDOW] - meter[i]) * 1e6
         / (SCRAPE_WINDOW * plane["series"])
         for i in range(0, plane["scrapes"] - SCRAPE_WINDOW + 1,
                        SCRAPE_WINDOW)])

    print_table(
        "Mean time to detect, per injected fault class "
        "(multi-window burn-rate alerts)",
        ["fault", "injected at", "MTTD", "alert"],
        [[f["kind"], f"{f['injected_at']:.0f}s",
          f"{f['mttd_s']:.0f}s" if f["mttd_s"] is not None else "MISSED",
          f["alert"] or "-"]
         for f in observed["faults"]])
    print_table(
        f"Scraper overhead (its own meter, {per_series['repeats']} "
        f"readings of {SCRAPE_WINDOW} scrapes)",
        ["scrapes", "series", "us/scrape/series", "q1", "q3", "ceiling"],
        [[plane["scrapes"], plane["series"], per_series["median"],
          per_series["q1"], per_series["q3"],
          SCRAPE_US_PER_SERIES_CEILING]])
    exemplar = observed["exemplar"] or {}
    if "trace_id" in exemplar:
        print(f"\nexemplar flow: request.duration {exemplar['value_s']}s -> "
              f"trace {exemplar['trace_id'][-8:]} "
              f"({exemplar['span_count']} spans, "
              f"304 on revalidate: {exemplar.get('revalidated_304')})")

    exact = {
        "horizon_s": HORIZON,
        "schedule": [{"delay_s": d, "kind": k} for d, k in FAULT_SCHEDULE],
        "faults": observed["faults"],
        "alerts_fired": observed["alerts_fired"],
        "alerts_resolved": observed["alerts_resolved"],
        "overhead": {
            "ceiling_us_per_scrape_per_series": SCRAPE_US_PER_SERIES_CEILING,
            "scrapes": plane["scrapes"],
            "series": plane["series"],
        },
        "exemplar": {k: v for k, v in exemplar.items() if k != "error"}
        if "trace_id" in exemplar else exemplar,
    }
    return {"exact": exact,
            "host": {"us_per_scrape_per_series": per_series},
            "baseline_alerts_fired": baseline["alerts_fired"],
            "spans": observed["spans"]}


def check(result) -> list:
    """The bench's claims; returns human-readable failures."""
    exact = result["exact"]
    failures = []
    # with telemetry off, the same faults raise no alert at all — the
    # plane is the difference between detection and blindness
    if result["baseline_alerts_fired"]:
        failures.append(f"{result['baseline_alerts_fired']} alerts fired "
                        f"with the telemetry plane off")
    for fault in exact["faults"]:
        if fault["mttd_s"] is None:
            failures.append(f"fault class {fault['kind']!r} never raised "
                            f"an alert")
        elif fault["mttd_s"] > DETECTION_BUDGET:
            failures.append(
                f"{fault['kind']} detection took {fault['mttd_s']:.0f}s "
                f"(budget {DETECTION_BUDGET:.0f}s)")
    detected = {f["kind"] for f in exact["faults"]
                if f["mttd_s"] is not None}
    if detected != {kind for _delay, kind in FAULT_SCHEDULE}:
        failures.append(f"detected {sorted(detected)}, not every fault "
                        f"class in the schedule")
    if exact["alerts_fired"] == 0:
        failures.append("no alert fired under the fault schedule")
    if exact["alerts_resolved"] == 0:
        failures.append("no alert ever resolved (stuck firing)")
    per_series = result["host"]["us_per_scrape_per_series"]
    if per_series["median"] >= SCRAPE_US_PER_SERIES_CEILING:
        failures.append(
            f"scraper costs {per_series['median']:.2f} "
            f"[{per_series['q1']:.2f}, {per_series['q3']:.2f}] host-us per "
            f"scrape per series (ceiling {SCRAPE_US_PER_SERIES_CEILING})")
    exemplar = exact["exemplar"]
    if "trace_id" not in exemplar:
        failures.append(f"exemplar flow failed: "
                        f"{exemplar.get('error', 'no exemplar')}")
    elif not exemplar.get("span_count"):
        failures.append("exemplar trace resolved to zero spans")
    elif not exemplar.get("revalidated_304"):
        failures.append("span tree did not revalidate with 304")
    return failures


def test_observability_plane_earns_its_keep(benchmark):
    result = once(benchmark, run)
    failures = check(result)
    assert not failures, failures
    assert_committed("observability", result["exact"])

    # the per-span table now separates "fast" from "failed fast"
    summary = trace_summary(result["spans"],
                            "Telemetry arm - per-span latency", min_count=20)
    assert all("error_rate" in stats for stats in summary.values())
