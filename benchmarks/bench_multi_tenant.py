"""TENANCY — weighted-fair scheduling and token-bucket admission.

One aggressive tenant flooding the interactive class starves everyone
who shares its lane: within one lane a priority class is served in
arrival order, so 600 flood sessions queue ahead of every stakeholder.
Each tenant has its own deficit-round-robin lane, a token bucket at
the ``/v1`` edge and tenant-scoped idempotency, and this bench pins
three claims:

1. **weighted fairness under a flood** — one aggressive tenant (600
   sessions at t0) plus nine normal tenants (60 each): Jain's index
   over the contended window is >= 0.9 with a lane per tenant and
   < 0.6 on the unfair arm (every session the default tenant's, so one
   lane), and the normal tenants' p95 wait stays within 2x of their
   solo baseline;
2. **token-bucket admission** — a burst tenant with ``rate=1/s,
   burst=5`` gets 429 problem documents carrying ``Retry-After`` and
   ``X-RateLimit-*`` once the bucket drains, while unnamed traffic
   rides the default tenant's unlimited bucket;
3. **tenant-scoped idempotency** — the same ``Idempotency-Key`` from
   two tenants executes twice (zero cross-tenant replay), a
   same-tenant retry replays the original response, and the default
   tenant is one principal whether or not the header names it.

Every figure is on the simulated clock or a count, so the artifact has
no host half.  ``python -m benchmarks multi_tenant`` rewrites
``BENCH_multi_tenant.json``; under pytest the same ``run`` / ``check``
gate, write nothing, and hold the file's exact half equal to this run's.
"""

from benchmarks.harness import assert_committed, once, print_table
from benchmarks.bench_shard_scaling import Plane
from repro.cloud.storage import BlobStore
from repro.obs.hub import obs_of
from repro.obs.refusal import refused
from repro.services.idempotency import IdempotencyIndex
from repro.services.transport import HttpRequest
from repro.tenancy import (
    DEFAULT_TENANT,
    RateLimiter,
    TENANT_HEADER,
    TenantRegistry,
    TenantSpec,
    jain_index,
)

AGGRESSOR = "flood-corp"
NORMALS = [f"org-{i}" for i in range(9)]
SERVICE_SECONDS = 120.0


# -- the contended estate ----------------------------------------------------


def _contention_plane(replicas):
    """A strict-capacity single-shard estate with a fixed slot count."""
    plane = Plane(shards=1, replicas=replicas, sessions_per_replica=8,
                  strict_capacity=True, autoscale_interval=5.0)
    plane.warm(replicas)
    return plane


def _start_reaper(plane, horizon):
    """End every placed session ``SERVICE_SECONDS`` after assignment.

    A 1 Hz sweep stands in for the portal's session-end sensing; ended
    sessions free strict-capacity slots the next autoscale pass drains
    queued work into.
    """
    seen = set()

    def tick():
        for session in plane.sessions.active():
            if session.session_id not in seen:
                seen.add(session.session_id)
                plane.sim.schedule(SERVICE_SECONDS, session.end)
        if plane.sim.now < horizon:
            plane.sim.schedule(1.0, tick)

    plane.sim.schedule(1.0, tick)


def measure_contention(fair, replicas, aggressive_n, normal_n,
                       window, horizon):
    """One aggressive tenant floods, nine normal tenants follow.

    ``fair=False`` is the one-lane arm: every session is the default
    tenant's, so they share its lane and the flood owns the head of the
    queue.  ``fair=True`` labels sessions with their tenant and
    attaches a registry, so each tenant gets a DRR lane.  Fairness
    is Jain's index over per-tenant sessions served *from the queue*
    during the contended window (instant warm-slot placements at t0 are
    excluded — they all go to whoever submitted first, in both arms).
    """
    plane = _contention_plane(replicas)
    if fair:
        registry = TenantRegistry(
            specs=[TenantSpec(AGGRESSOR)] + [TenantSpec(t) for t in NORMALS])
        plane.sched.attach_tenants(registry)
    owner = {}
    t0 = plane.sim.now

    def submit(logical, count):
        for i in range(count):
            session = plane.sessions.create(
                f"{logical}-{i}",
                tenant=logical if fair else DEFAULT_TENANT)
            owner[session.session_id] = logical
            plane.sched.submit_session(session, "svc")

    submit(AGGRESSOR, aggressive_n)
    for name in NORMALS:
        submit(name, normal_n)
    _start_reaper(plane, t0 + horizon)

    plane.sim.run(until=t0 + window)
    served = {tenant: 0 for tenant in [AGGRESSOR] + NORMALS}
    for session in plane.sessions.all():
        if session.assigned_at is not None and session.assigned_at > t0:
            served[owner[session.session_id]] += 1
    fairness = jain_index([served[t] for t in [AGGRESSOR] + NORMALS])

    plane.sim.run(until=t0 + horizon)
    normal_waits = sorted(
        s.wait_time for s in plane.sessions.all()
        if owner[s.session_id] != AGGRESSOR and s.wait_time is not None)
    expected = len(NORMALS) * normal_n
    assert len(normal_waits) == expected, \
        f"{len(normal_waits)}/{expected} normal sessions placed"
    return {
        "arm": "fair" if fair else "unfair",
        "window_seconds": window,
        "served_in_window": served,
        "jain": round(fairness, 4),
        "normal_p50": _pct(normal_waits, 0.50),
        "normal_p95": _pct(normal_waits, 0.95),
        "registry_fairness": (round(registry.fairness(), 4)
                              if fair else None),
    }


def measure_solo(replicas, normal_n, horizon):
    """The nine normal tenants alone — the no-flood p95 baseline."""
    plane = _contention_plane(replicas)
    registry = TenantRegistry(specs=[TenantSpec(t) for t in NORMALS])
    plane.sched.attach_tenants(registry)
    t0 = plane.sim.now
    sessions = []
    for name in NORMALS:
        for i in range(normal_n):
            session = plane.sessions.create(f"{name}-{i}", tenant=name)
            sessions.append(session)
            plane.sched.submit_session(session, "svc")
    _start_reaper(plane, t0 + horizon)
    plane.sim.run(until=t0 + horizon)
    waits = sorted(s.wait_time for s in sessions if s.wait_time is not None)
    assert len(waits) == len(sessions), "solo sessions left waiting"
    return {"normal_p50": _pct(waits, 0.50), "normal_p95": _pct(waits, 0.95)}


def _pct(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(q * len(sorted_values)) - 1))
    return sorted_values[index]


# -- token-bucket admission at the /v1 edge ----------------------------------


def measure_rate_limit(requests=24):
    """A burst tenant drains its bucket; unnamed traffic never does."""
    plane = Plane(shards=1, replicas=2)
    plane.warm(2)
    registry = TenantRegistry(
        specs=[TenantSpec("burst", rate=1.0, burst=5.0)])
    plane.api.tenants = registry
    plane.api.limiter = RateLimiter(plane.sim, registry)
    address = plane.sched.services()[0].serving()[0].address
    burst, anonymous = [], []

    # pace the burst at 10 req/s — fast enough to drain a 5-token
    # bucket refilling at 1/s, slow enough to never trip the server's
    # accept-queue overload (a different 503, not the one under test)
    def fire(signals, headers):
        signals.append(plane.network.request(
            address, HttpRequest("GET", "/v1/ping", headers=headers)))

    for i in range(requests):
        plane.sim.schedule(0.1 * i, lambda: fire(
            burst, {TENANT_HEADER: "burst"}))
        plane.sim.schedule(0.1 * i + 0.05, lambda: fire(anonymous, {}))
    plane.sim.run(until=plane.sim.now + 60.0)
    responses = [s.value for s in burst]
    throttled = [r for r in responses if r.status == 429]
    allowed = [r for r in responses if r.status == 200]
    # the one counter says what the responses said: every refusal is a
    # rate_limited of the burst tenant's, the unnamed stream has no child
    assert refused(plane.sim, cause="rate_limited", tenant="burst") \
        == refused(plane.sim) == len(throttled)
    assert obs_of(plane.sim).events.dropped == 0
    return {
        "requests": requests,
        "allowed": len(allowed),
        "throttled": len(throttled),
        "retry_after_on_429": all("Retry-After" in r.headers
                                  for r in throttled),
        "ratelimit_headers_on_429": all("X-RateLimit-Limit" in r.headers
                                        for r in throttled),
        "problem_type_rate_limited": all(
            r.body.get("type", "").endswith("rate-limited")
            for r in throttled),
        "anonymous_all_ok": all(s.value.status == 200 for s in anonymous),
    }


# -- tenant-scoped idempotency -----------------------------------------------


def measure_idempotency():
    """The same key from two tenants is two executions, never a replay."""
    plane = Plane(shards=1, replicas=1)
    plane.warm(1)
    store = BlobStore(plane.sim, name="bench-idem")
    plane.api.idempotency = IdempotencyIndex(
        plane.sim, store.create_container("idempotency"))
    executions = {"n": 0}

    def run_handler(request, params):
        executions["n"] += 1
        return {"run": executions["n"]}

    plane.api.post("/runs", run_handler)
    address = plane.sched.services()[0].serving()[0].address

    def call(tenant):
        headers = {"Idempotency-Key": "bench-key"}
        if tenant is not None:
            headers[TENANT_HEADER] = tenant
        signal = plane.network.request(
            address, HttpRequest("POST", "/v1/runs", body={}, headers=headers))
        plane.sim.run(until=plane.sim.now + 10.0)
        return signal.value

    first_a = call("org-a")
    first_b = call("org-b")
    retry_a = call("org-a")
    anonymous = call(None)
    named_default = call(DEFAULT_TENANT)
    return {
        "executions": executions["n"],
        "cross_tenant_replays": int(first_a.body == first_b.body),
        "same_tenant_replayed": retry_a.body == first_a.body,
        "anonymous_separate": anonymous.body not in (first_a.body,
                                                     first_b.body),
        "default_is_one_principal": named_default.body == anonymous.body,
    }


# -- orchestration -----------------------------------------------------------


def run(replicas=16, aggressive_n=600, normal_n=60, window=300.0,
        horizon=2000.0):
    unfair = measure_contention(False, replicas, aggressive_n, normal_n,
                                window, horizon)
    fair = measure_contention(True, replicas, aggressive_n, normal_n,
                              window, horizon)
    solo = measure_solo(replicas, normal_n, horizon)
    fair["p95_vs_solo"] = round(
        fair["normal_p95"] / max(solo["normal_p95"], 1e-9), 3)
    exact = {
        "contention": {"unfair": unfair, "fair": fair, "solo": solo},
        "rate_limit": measure_rate_limit(),
        "idempotency": measure_idempotency(),
    }
    report(exact)
    return {"exact": exact, "host": {}}


def report(result):
    contention = result["contention"]
    print_table(
        "fairness under a one-tenant flood (contended-window Jain)",
        ["arm", "jain", "normal p50 (s)", "normal p95 (s)"],
        [[arm["arm"], arm["jain"], arm["normal_p50"], arm["normal_p95"]]
         for arm in (contention["unfair"], contention["fair"])]
        + [["solo", "-", contention["solo"]["normal_p50"],
            contention["solo"]["normal_p95"]]])
    limit = result["rate_limit"]
    print_table(
        "token-bucket admission (rate=1/s, burst=5)",
        ["requests", "allowed", "throttled", "Retry-After", "X-RateLimit-*"],
        [[limit["requests"], limit["allowed"], limit["throttled"],
          limit["retry_after_on_429"], limit["ratelimit_headers_on_429"]]])
    idem = result["idempotency"]
    print_table(
        "tenant-scoped idempotency (one key, two tenants)",
        ["executions", "cross-tenant replays", "same-tenant replayed"],
        [[idem["executions"], idem["cross_tenant_replays"],
          idem["same_tenant_replayed"]]])


def check(result):
    exact = result["exact"]
    failures = []
    contention = exact["contention"]
    if contention["fair"]["jain"] < 0.9:
        failures.append(f"fair-arm Jain {contention['fair']['jain']:.3f} "
                        f"below 0.9")
    if contention["unfair"]["jain"] >= 0.6:
        failures.append(f"unfair arm Jain "
                        f"{contention['unfair']['jain']:.3f} >= 0.6 — the "
                        f"flood is not exercising head-of-line blocking")
    if contention["fair"]["p95_vs_solo"] > 2.0:
        failures.append(f"normal-tenant p95 "
                        f"{contention['fair']['p95_vs_solo']:.2f}x of solo "
                        f"baseline exceeds 2x")
    limit = exact["rate_limit"]
    if limit["throttled"] < limit["requests"] // 2:
        failures.append("token bucket throttled fewer than half the burst")
    if not (limit["retry_after_on_429"]
            and limit["ratelimit_headers_on_429"]
            and limit["problem_type_rate_limited"]):
        failures.append("429 responses missing Retry-After / X-RateLimit-* "
                        "headers or the rate-limited problem type")
    if not limit["anonymous_all_ok"]:
        failures.append("unnamed traffic was throttled by default")
    idem = exact["idempotency"]
    if idem["cross_tenant_replays"]:
        failures.append("an idempotency key replayed across tenants")
    if not idem["same_tenant_replayed"]:
        failures.append("a same-tenant retry did not replay")
    if idem["executions"] != 3 or not idem["anonymous_separate"]:
        failures.append(f"expected 3 distinct executions (two tenants + "
                        f"the default), saw {idem['executions']}")
    if not idem["default_is_one_principal"]:
        failures.append("naming the default tenant did not replay the "
                        "unnamed request with the same key")
    return failures


def test_multi_tenant(benchmark):
    result = once(benchmark, run)
    failures = check(result)
    assert not failures, "; ".join(failures)
    assert_committed("multi_tenant", result["exact"])
