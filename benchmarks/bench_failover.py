"""FAIL — Load Balancer failure detection and graceful recovery.

Section IV-D: instance statistics are observed and "degradation in these
metrics, such as sustained high CPU utilisation or zero outbound network
usage whilst receiving inbound traffic, triggers LB into starting a new
instance and redirecting users that were being served by the seemingly
malfunctioning instance to the newly created one. ... failed VMs are
easily replaced.  Hence, service migration is graceful."

The experiment injects each fault kind into a replica carrying live user
sessions, and measures detection latency, recovery (replacement booted
and sessions redirected) latency, and whether any session was lost.  The
baseline is the same crash with no LB watching: sessions point at a dead
address forever.

The second experiment measures the resilience fabric itself: the same
fault schedule (crash, then blackhole, then degrade, at fixed times
against deterministically chosen victims) is replayed against user
traffic going through the bare ``Network.request`` and through the
:class:`~repro.resilience.ResilientClient`; the bench reports
user-visible errors for both, plus the fabric's retry/breaker/shed
counters and its spans.
"""

from benchmarks.harness import once, print_table, trace_summary
from repro.core import Evop, EvopConfig
from repro.obs import obs_of
from repro.obs.refusal import refused
from repro.services.client import RestClient
from repro.services.transport import HttpRequest, HttpResponse


def run_fault(kind: str, monitored: bool = True):
    evop = Evop(EvopConfig(
        truth_days=4, storm_day=2, private_vcpus=12,
        sessions_per_replica=4, min_replicas=2,
        autoscale_interval=10.0, seed=7,
    )).bootstrap()
    evop.run_for(400.0)
    service = evop.lb.service("left-morland")
    victim = service.serving()[0]

    # six live users; the balancer spreads them over the two replicas
    sessions = []
    for i in range(6):
        sessions.append(evop.rb.connect(f"user-{i}", "left-morland"))
    evop.run_for(60.0)

    if not monitored:
        evop.monitor.unwatch(victim)

    inject_time = evop.sim.now
    at_risk = list(evop.sessions.on_instance(victim))
    if kind == "crash":
        evop.injector.crash(victim)
    elif kind == "degrade":
        # near-total degradation: jobs effectively never finish (a wedged
        # VM); milder degradation classifies as OVERLOADED and is handled
        # by the autoscaler instead of replacement
        evop.injector.degrade(victim, speed_multiplier=1e-6)
        # degraded instances need inbound work so CPU pins and wedging
        # shows; requests are acked (bytes both ways), so the blackhole
        # heuristic stays quiet and the WEDGED path must fire
        from repro.cloud import Job

        def hammer():
            while not victim.is_gone:
                victim.submit(Job(cost=5.0, name="user-request"))
                victim.record_bytes_in(300)
                victim.record_bytes_out(40)
                yield 5.0

        evop.sim.spawn(hammer(), name="hammer")
    elif kind == "blackhole":
        evop.injector.blackhole(victim)

        def traffic():
            while not victim.is_gone:
                victim.record_bytes_in(300)
                victim.record_bytes_out(120)  # dropped by the blackhole
                yield 5.0

        evop.sim.spawn(traffic(), name="traffic")
    else:
        raise ValueError(kind)

    evop.run_for(1200.0)

    events = obs_of(evop.sim).events
    detected = events.events("lb.fault.detected", since=inject_time)
    detection_latency = detected[0].t - inject_time if detected else None
    healthy = [s for s in at_risk
               if s.instance is not None and s.instance.is_serving
               and s.instance is not victim]
    recovery_latency = None
    if detected:
        # recovered when the pool is back at strength and everyone serving
        ready = [e for e in events.events("lb.replica.ready")
                 if e.t > inject_time]
        if ready:
            recovery_latency = ready[0].t - inject_time
    tracer = obs_of(evop.sim).tracer
    tracer.finish_open_spans()
    return {
        "spans": list(tracer.spans()),
        "detected": bool(detected),
        "detection_latency": detection_latency,
        "recovery_latency": recovery_latency,
        "sessions_rescued": len(healthy),
        "sessions_total": len(at_risk),
        "victim_destroyed": victim.is_gone,
    }


# --------------------------------------------- resilient vs bare client


def run_client_comparison(protected: bool, horizon: float = 1800.0,
                          users: int = 6, poll_interval: float = 30.0):
    """Replay one fault schedule against protected or bare user traffic.

    The schedule is fixed in time and kind; victims are chosen by a
    deterministic rule (first serving replica), so both arms see the
    same storm.  Each user polls DescribeProcess through its session's
    current address; an error is anything that is not a 2xx response.
    """
    evop = Evop(EvopConfig(
        truth_days=4, storm_day=2, private_vcpus=12,
        sessions_per_replica=4, min_replicas=2,
        autoscale_interval=10.0, seed=7,
    )).bootstrap()
    evop.run_for(400.0)
    service = evop.lb.service("left-morland")
    process_id = "topmodel-morland"
    path = f"/v1/wps/processes/{process_id}"

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

    # the identical fault schedule both arms replay
    schedule = [(120.0, "crash"), (600.0, "blackhole"), (1080.0, "degrade")]
    for delay, kind in schedule:
        if delay < horizon:
            evop.sim.schedule(delay, inject, kind)

    stats = {"requests": 0, "errors": 0}

    def protected_user(session):
        client = RestClient(evop.sim, evop.network,
                            lambda: session.instance_address,
                            resilient=evop.resilient,
                            trace=session.trace_context)
        while evop.sim.now < start + horizon:
            stats["requests"] += 1
            reply = yield client.describe_process(process_id)
            if not (isinstance(reply, HttpResponse) and reply.ok):
                stats["errors"] += 1
            yield poll_interval

    def bare_user(session):
        while evop.sim.now < start + horizon:
            stats["requests"] += 1
            address = session.instance_address
            if address is None:
                stats["errors"] += 1
            else:
                reply = yield evop.network.request(
                    address, HttpRequest("GET", path), timeout=15.0)
                if not (isinstance(reply, HttpResponse) and reply.ok):
                    stats["errors"] += 1
            yield poll_interval

    start = evop.sim.now
    for session in sessions:
        evop.sim.spawn(protected_user(session) if protected
                       else bare_user(session),
                       name=f"poll.{session.session_id}")
    evop.run_for(horizon + 300.0)

    tracer = obs_of(evop.sim).tracer
    tracer.finish_open_spans()
    return {
        "requests": stats["requests"],
        "errors": stats["errors"],
        "metrics": evop.resilience_metrics.snapshot(),
        "circuit_open": int(refused(evop.sim, cause="circuit_open")),
        "spans": list(tracer.spans()),
    }


def compare_clients():
    """Both arms of the comparison plus the printed report."""
    resilient = run_client_comparison(True)
    bare = run_client_comparison(False)

    print_table(
        "User-visible errors under one fault schedule "
        "(crash + blackhole + wedge)",
        ["client", "requests", "user-visible errors"],
        [["resilient (fabric)", resilient["requests"], resilient["errors"]],
         ["bare Network.request", bare["requests"], bare["errors"]]])

    interesting = [(k, v) for k, v in sorted(resilient["metrics"].items())
                   if "." not in k and v]
    # what the fabric refused outright rather than sent: the one counter
    # and the registry's own fast-fail tally are the same fact
    assert resilient["circuit_open"] \
        == resilient["metrics"].get("breaker.fastfail", 0)
    interesting.append(("refused{cause=circuit_open}",
                        resilient["circuit_open"]))
    print_table("Resilience fabric counters (protected arm)",
                ["counter", "value"], interesting)
    return resilient, bare


def test_resilient_client_masks_faults(benchmark):
    resilient, bare = once(benchmark, compare_clients)

    # the whole point of the fabric: fewer errors reach users under the
    # identical fault schedule, and the bare client does suffer
    assert bare["errors"] > 0
    assert resilient["errors"] < bare["errors"]
    assert resilient["errors"] == 0

    # the fabric's work is observable: retries happened and are counted,
    # and every call left a resilience span in the trace store
    assert resilient["metrics"].get("retries", 0) > 0
    summary = trace_summary(resilient["spans"],
                            "Protected arm - per-span latency", min_count=5)
    assert any(name.startswith("resilience ") for name in summary)


def test_failover_all_fault_kinds(benchmark):
    results = once(benchmark, lambda: {
        "crash": run_fault("crash"),
        "degrade": run_fault("degrade"),
        "blackhole": run_fault("blackhole"),
        "crash (no LB)": run_fault("crash", monitored=False),
    })

    rows = []
    for kind, r in results.items():
        rows.append([
            kind,
            "yes" if r["detected"] else "no",
            f"{r['detection_latency']:.0f}s" if r["detection_latency"]
            is not None else "-",
            f"{r['recovery_latency']:.0f}s" if r["recovery_latency"]
            is not None else "-",
            f"{r['sessions_rescued']}/{r['sessions_total']}",
        ])
    print_table(
        "LB failure detection and recovery - 6 live sessions on the victim",
        ["fault", "detected", "detection", "replacement ready",
         "sessions redirected"],
        rows)

    # every monitored fault kind is detected and every session rescued
    for kind in ("crash", "degrade", "blackhole"):
        r = results[kind]
        assert r["detected"], kind
        assert r["sessions_rescued"] == r["sessions_total"], kind
        assert r["victim_destroyed"], kind
        assert r["recovery_latency"] is not None and \
            r["recovery_latency"] < 600.0, kind

    # crash/blackhole are caught within a couple of sampling windows;
    # wedging needs its longer evidence horizon
    assert results["crash"]["detection_latency"] <= 3 * 5.0 + 1.0
    assert results["blackhole"]["detection_latency"] <= 6 * 5.0 + 1.0
    assert results["degrade"]["detection_latency"] <= 30 * 5.0 + 1.0

    # without the LB watching, nobody notices and nobody is redirected
    baseline = results["crash (no LB)"]
    assert not baseline["detected"]
    assert baseline["sessions_rescued"] == 0

    # the broker traced every session through placement; the crash run's
    # spans show where session time went
    summary = trace_summary(
        results["crash"]["spans"],
        "Crash run - per-span latency from distributed traces")
    assert any(name.startswith("rb.session") for name in summary)
    assert "lb.place" in summary
