"""BURST — cloudbursting under a flash crowd (Sections IV-D and VI).

"To minimise cost, user requests are served by default using private
instances.  Upon saturation of private cloud resources, LB initiates
cloudbursting mode where public cloud instances are used beside private
ones.  This is reversed upon detecting underuse."  And from Section VI:
"IaaS enables us to manage [flash crowds] with great ease and
maintenance of high Quality of Service."

The experiment drives the same flash crowd (40 users arriving in 5
minutes, each running a model) against three scheduling policies and
compares QoS (model-run round trip) against cost.  Expected shape:
private-only is cheapest but QoS collapses at saturation; public-only
has the best QoS at the highest cost; the hybrid tracks public-level QoS
at markedly lower cost, bursting exactly once and reversing afterwards.
"""

from benchmarks.harness import once, print_table, trace_summary
from repro.core import Evop, EvopConfig
from repro.obs import obs_of


def drive_crowd(policy: str):
    evop = Evop(EvopConfig(
        policy=policy,
        truth_days=4, storm_day=2,
        private_vcpus=6,             # 1 vCPU gateway + 2 MEDIUM replicas max
        sessions_per_replica=4,
        autoscale_interval=10.0,
        seed=42,
    )).bootstrap()
    evop.run_for(300.0)

    round_trips = []
    failures = []

    def user(i):
        # phase 1 - the crowd arrives over 5 minutes and browses the map
        # (sessions spread over the pool as the autoscaler reacts)
        yield i * 7.5
        widget = evop.left().open_modelling_widget(f"user-{i}", model="fuse")
        widget.request_timeout = 600.0
        while widget.session.instance_address is None:
            yield 2.0
        loaded = yield widget.load()
        if not loaded:
            failures.append(i)
            return
        # phase 2 - everyone starts running the heavy FUSE ensemble
        # (16 structures x 30 days) shortly after arriving
        yield 120.0
        for _run in range(3):
            run = yield widget.run(duration_hours=720)
            if run is None:
                failures.append(i)
                return
            round_trips.append(run.round_trip)
            yield 30.0  # read the hydrograph, tweak, run again
        evop.rb.disconnect(widget.session)

    for i in range(40):
        evop.sim.spawn(user(i), name=f"user-{i}")
    evop.run_for(3 * 3600.0)
    burst_peak = {loc: 0 for loc in ("private", "public")}
    for loc in burst_peak:
        provider = evop.multicloud.compute(loc)
        burst_peak[loc] = provider.metrics.gauge("instances.running").peak

    activations = evop.sched_metrics.counter("cloudburst.activations").value
    # let demand drain and the LB reverse
    evop.run_for(3600.0)
    reversals = evop.sched_metrics.counter("cloudburst.reversals").value

    ordered = sorted(round_trips)
    p95 = ordered[int(0.95 * (len(ordered) - 1))] if ordered else float("inf")
    tracer = obs_of(evop.sim).tracer
    tracer.finish_open_spans()
    return {
        "spans": list(tracer.spans()),
        "completed": len(round_trips),
        "failed": len(failures),
        "mean_rt": sum(round_trips) / len(round_trips) if round_trips else 0,
        "p95_rt": p95,
        "cost": evop.cost_report()["total"],
        "peak_private": burst_peak["private"],
        "peak_public": burst_peak["public"],
        "activations": activations,
        "reversals": reversals,
        "public_left": evop.instances_by_location()["public"],
    }


def test_cloudburst_flash_crowd(benchmark):
    results = once(benchmark, lambda: {
        policy: drive_crowd(policy)
        for policy in ("private-only", "private-first", "public-only")})

    rows = []
    for policy, r in results.items():
        rows.append([policy, r["completed"], r["failed"], r["mean_rt"],
                     r["p95_rt"], f"${r['cost']:.3f}", r["peak_private"],
                     r["peak_public"]])
    print_table(
        "Cloudbursting - flash crowd of 40 users x 3 FUSE-ensemble runs, "
        "6-vCPU private pool",
        ["policy", "runs ok", "users failed", "mean RT s", "p95 RT s",
         "cost", "peak private", "peak public"],
        rows)

    hybrid = results["private-first"]
    private = results["private-only"]
    public = results["public-only"]

    # where the crowd's time went under the hybrid policy, from the
    # distributed traces the portal sessions carried through the stack
    summary = trace_summary(
        hybrid["spans"],
        "Hybrid policy - per-span latency from distributed traces")
    assert any(name.startswith("job ") for name in summary)
    assert any(name.startswith("rest ") for name in summary)

    # elasticity serves everyone; the quota-bound private pool does not
    assert hybrid["failed"] == 0 and public["failed"] == 0
    assert private["failed"] > 0 or \
        private["p95_rt"] > 1.5 * hybrid["p95_rt"]

    # QoS: the hybrid is in the same class as public-only
    assert hybrid["p95_rt"] < 2.5 * public["p95_rt"]

    # cost: bursting only for the peak undercuts an all-public deployment
    assert hybrid["cost"] < public["cost"]
    assert private["cost"] < public["cost"]

    # the burst happened exactly once and reversed after the crowd left
    assert hybrid["activations"] == 1
    assert hybrid["reversals"] >= 1
    assert hybrid["public_left"] == 0
    # and the hybrid really used both clouds at its peak
    assert hybrid["peak_private"] >= 2 and hybrid["peak_public"] >= 1
