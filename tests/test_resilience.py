"""Tests for the resilience fabric and the versioned v1 service API.

Unit level: backoff schedule determinism, retry classification, the
breaker state machine, bulkhead admission/shedding, hedging winner
selection, and the transport timeout race (a late response must never
double-fire the one-shot reply signal).

Integration level: FaultInjector crash/degrade/blackhole replayed
against a live deployment while users poll a retryable route through
:class:`RestClient` — no 5xx may ever reach a user.
"""

import pytest

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.core import Evop, EvopConfig
from repro.resilience import (
    BreakerOpen,
    BreakerRegistry,
    Bulkhead,
    CircuitBreaker,
    ResilientClient,
    RetryPolicy,
)
from repro.resilience.bulkhead import BulkheadGroup
from repro.services.client import RestClient
from repro.services.envelope import problem
from repro.services.rest import RestApi, RestCacheable, RestServer
from repro.services.transport import (
    ConnectionRefused,
    HttpRequest,
    HttpResponse,
    Network,
    RequestTimeout,
)
from repro.sim import MetricsRegistry, RandomStreams, Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def network(sim):
    return Network(sim)


def make_instance(sim, instance_id="os-0000", vcpus=2):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    flavor = Flavor("f", vcpus, 2048, 20)
    inst = Instance(sim, instance_id, "openstack", image, flavor)
    inst._mark_running()
    return inst


class ScriptedServer:
    """A server answering request *i* after ``delays[i]`` seconds."""

    def __init__(self, sim, delays, status=200):
        self.sim = sim
        self.delays = list(delays)
        self.status = status
        self.calls = 0

    def handle(self, request):
        done = self.sim.signal("scripted")
        index = min(self.calls, len(self.delays) - 1)
        self.calls += 1
        n = self.calls

        def worker():
            yield self.delays[index]
            body = ({"n": n} if self.status < 400
                    else problem(self.status, "scripted failure",
                                 retryable=False))
            done.fire(HttpResponse(status=self.status, body=body))

        self.sim.spawn(worker(), name="scripted.worker")
        return done


def advance(sim, seconds):
    sim.run(until=sim.now + seconds)


# ------------------------------------------------------------ retry policy


def test_backoff_schedule_is_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=6, base_delay=0.5, max_delay=8.0)
    a = policy.schedule(RandomStreams(42).get("resilience.backoff"))
    b = policy.schedule(RandomStreams(42).get("resilience.backoff"))
    c = policy.schedule(RandomStreams(43).get("resilience.backoff"))
    assert a == b                      # same seed, same schedule
    assert a != c                      # different seed decorrelates
    assert len(a) == 5                 # max_attempts - 1 retries
    for i, delay in enumerate(a):
        assert 0.0 <= delay <= min(8.0, 0.5 * 2 ** i)


def test_should_retry_classification():
    policy = RetryPolicy()
    # refused: the server never saw it — always replayable
    assert policy.should_retry(ConnectionRefused("a"), safe=False)
    # timeout: ambiguous — only safe requests replay
    assert policy.should_retry(RequestTimeout("a", 30.0), safe=True)
    assert not policy.should_retry(RequestTimeout("a", 30.0), safe=False)
    # 2xx never retries
    assert not policy.should_retry(HttpResponse(200, {}), safe=True)
    # the body's explicit verdict overrides the idempotency rule
    shed = HttpResponse(429, problem(429, "shed", retryable=True))
    assert policy.should_retry(shed, safe=False)
    permanent = HttpResponse(503, problem(503, "boom", retryable=False))
    assert not policy.should_retry(permanent, safe=True)
    # without a verdict: safe + transient status class only
    bare_503 = HttpResponse(503, {"error": "old style"})
    assert policy.should_retry(bare_503, safe=True)
    assert not policy.should_retry(bare_503, safe=False)
    assert not policy.should_retry(HttpResponse(404, {}), safe=True)


# ------------------------------------------------------------- breaker


def test_breaker_trips_after_failure_rate(sim):
    breaker = CircuitBreaker(sim, "svc@a", min_calls=4, reset_timeout=30.0)
    assert breaker.state == "closed"
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == "closed"   # below min_calls
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow()
    with pytest.raises(BreakerOpen) as err:
        breaker.check()
    assert err.value.retry_after <= 30.0


def test_breaker_half_open_probes_and_recovery(sim):
    breaker = CircuitBreaker(sim, "svc@a", min_calls=2, reset_timeout=10.0,
                             half_open_probes=2)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    advance(sim, 10.0)
    # cooldown elapsed: a bounded number of probes may proceed
    assert breaker.allow()
    assert breaker.state == "half_open"
    assert breaker.allow()
    assert not breaker.allow()         # probe budget exhausted
    breaker.record_success()
    breaker.record_success()
    assert breaker.state == "closed"


def test_breaker_half_open_failure_reopens(sim):
    breaker = CircuitBreaker(sim, "svc@a", min_calls=2, reset_timeout=10.0)
    breaker.record_failure()
    breaker.record_failure()
    advance(sim, 10.0)
    assert breaker.allow()
    breaker.record_failure()           # the probe proved it is still broken
    assert breaker.state == "open"
    assert breaker.trips == 2
    assert not breaker.allow()


def test_breaker_window_forgets_old_failures(sim):
    breaker = CircuitBreaker(sim, "svc@a", min_calls=4, window_seconds=60.0)
    breaker.record_failure()
    breaker.record_failure()
    advance(sim, 120.0)                # both failures age out of the window
    breaker.record_failure()
    breaker.record_success()
    breaker.record_success()
    breaker.record_success()
    assert breaker.state == "closed"   # 1/4 failures < 0.5 threshold


def test_breaker_registry_shares_state(sim):
    transitions = []
    registry = BreakerRegistry(
        sim, on_transition=lambda t, old, new: transitions.append((t, new)))
    assert registry.get("wps@a") is registry.get("wps@a")
    assert BreakerRegistry.key("wps", "a") == "wps@a"
    b = registry.get("wps@a")
    for _ in range(4):
        b.record_failure()
    assert b.state == "open" and b.trips == 1
    assert ("wps@a", "open") in transitions


# ------------------------------------------------------------- bulkhead


def test_bulkhead_admits_queues_and_sheds(sim):
    bulkhead = Bulkhead(sim, "a", max_in_flight=2, max_queue=1)
    first, second = bulkhead.acquire(), bulkhead.acquire()
    assert first.admitted and second.admitted
    queued = bulkhead.acquire()
    assert queued.gate is not None and not queued.admitted
    shed = bulkhead.acquire()
    assert shed.shed
    assert bulkhead.shed_total == 1
    # release transfers the slot to the oldest waiter, in_flight unchanged
    bulkhead.release()
    assert queued.gate.fired and queued.gate.value is True
    assert bulkhead.in_flight == 2
    bulkhead.release()
    bulkhead.release()
    assert bulkhead.in_flight == 0


def test_bulkhead_abandon_fires_gate_false(sim):
    bulkhead = Bulkhead(sim, "a", max_in_flight=1, max_queue=4)
    bulkhead.acquire()
    waiting = bulkhead.acquire()
    assert bulkhead.abandon(waiting)
    assert waiting.gate.fired and waiting.gate.value is False
    # an abandoned waiter never receives the freed slot
    bulkhead.release()
    assert bulkhead.in_flight == 0


def test_bulkhead_try_acquire_never_queues(sim):
    bulkhead = Bulkhead(sim, "a", max_in_flight=1, max_queue=4)
    assert bulkhead.try_acquire()
    assert not bulkhead.try_acquire()
    assert bulkhead.queued_total == 0
    assert bulkhead.shed_total == 0


# ------------------------------------------- transport timeout race (bugfix)


def test_late_response_after_timeout_never_double_fires(sim, network):
    instance = make_instance(sim)
    network.register(instance.address, ScriptedServer(sim, [10.0]), instance)
    reply = network.request(instance.address, HttpRequest("GET", "/v1/slow"),
                            timeout=3.0)
    sim.run()
    # the timeout fired first; the late answer at t=10 must not re-fire
    # the one-shot signal (strict mode would raise through sim.run)
    assert isinstance(reply.value, RequestTimeout)
    assert reply.value.after_seconds == 3.0
    # the late response still paid its wire bytes
    assert instance.net_bytes_out > 0


def test_blackholed_then_recovered_instance_regression(sim, network):
    instance = make_instance(sim)
    network.register(instance.address, ScriptedServer(sim, [8.0, 0.1]),
                     instance)
    instance._blackhole()
    reply = network.request(instance.address, HttpRequest("GET", "/v1/x"),
                            timeout=3.0)
    # the NIC recovers while the handler is still working: the answer
    # leaves at t=8, long after the caller gave up at t=3

    def recover():
        instance.network_blackholed = False

    sim.schedule(5.0, recover)
    sim.run()
    assert isinstance(reply.value, RequestTimeout)
    # the recovered instance serves new requests normally
    second = network.request(instance.address, HttpRequest("GET", "/v1/x"),
                             timeout=3.0)
    sim.run()
    assert isinstance(second.value, HttpResponse) and second.value.ok


# ---------------------------------------------------------- resilient client


def client_with_metrics(sim, network, **kwargs):
    metrics = MetricsRegistry(sim, namespace="resilience")
    client = ResilientClient(sim, network, service="svc",
                             streams=RandomStreams(5), metrics=metrics,
                             **kwargs)
    return client, metrics


def test_client_retries_through_crash_to_replacement(sim, network):
    dead = make_instance(sim, "os-dead")
    live = make_instance(sim, "os-live")
    network.register(live.address, ScriptedServer(sim, [0.05]), live)
    dead._mark_failed("crash")
    addresses = [dead.address, live.address]

    client, metrics = client_with_metrics(sim, network)
    done = client.call(lambda: addresses[0] if sim.now < 1.0
                       else addresses[1],
                       HttpRequest("GET", "/v1/data"), deadline=60.0)
    sim.run()
    assert done.value.ok
    assert metrics.snapshot()["retries"] >= 1
    assert metrics.snapshot().get("errors", 0) == 0


def test_client_synthesises_problem_responses(sim, network):
    client, _ = client_with_metrics(
        sim, network, policy=RetryPolicy(max_attempts=2, base_delay=0.1,
                                         deadline=10.0))
    done = client.call("ghost.addr", HttpRequest("POST", "/v1/x"), safe=False)
    sim.run()
    response = done.value
    assert isinstance(response, HttpResponse)
    assert response.status == 503
    assert response.body["retryable"] is True
    assert response.body["title"] == "connection refused"


def test_client_breaker_fastfails_after_repeated_500s(sim, network):
    instance = make_instance(sim)
    server = ScriptedServer(sim, [0.01], status=500)
    network.register(instance.address, server, instance)
    client, metrics = client_with_metrics(
        sim, network, policy=RetryPolicy(max_attempts=2, base_delay=0.1,
                                         deadline=20.0))
    for _ in range(4):                 # 500s are permanent: one attempt each
        client.call(instance.address, HttpRequest("POST", "/v1/x"), safe=False)
        sim.run()
    assert client.breakers.get(f"svc@{instance.address}").state == "open"
    done = client.call(instance.address, HttpRequest("POST", "/v1/x"),
                       safe=False)
    sim.run()
    assert done.value.status == 503
    assert done.value.body["title"] == "circuit open"
    assert metrics.snapshot()["breaker.fastfail"] >= 1
    # the open circuit produced no wire traffic for the fast-failed call
    assert server.calls == 4


def test_client_sheds_via_bulkhead(sim, network):
    instance = make_instance(sim)
    network.register(instance.address, ScriptedServer(sim, [5.0]), instance)
    client, metrics = client_with_metrics(
        sim, network, hedge=False,
        policy=RetryPolicy(max_attempts=1, base_delay=0.1, deadline=30.0))
    client.bulkheads = BulkheadGroup(sim, max_in_flight=1, max_queue=0)
    first = client.call(instance.address, HttpRequest("GET", "/v1/x"))
    second = client.call(instance.address, HttpRequest("GET", "/v1/x"))
    sim.run()
    values = sorted([first.value.status, second.value.status])
    assert values == [200, 429]
    shed = first.value if first.value.status == 429 else second.value
    assert shed.body["retryable"] is True
    assert metrics.snapshot()["shed"] >= 1


def test_hedged_get_first_response_wins(sim, network):
    instance = make_instance(sim)
    network.register(instance.address, ScriptedServer(sim, [10.0, 0.1]),
                     instance)
    # under HEDGE_MIN_SAMPLES latencies the hedge waits DEFAULT_HEDGE_DELAY
    client, metrics = client_with_metrics(sim, network)
    done = client.call(instance.address, HttpRequest("GET", "/v1/x"),
                       timeout=30.0)
    sim.run(until=5.0)
    # the hedge (second request, fast) answered long before the primary
    assert done.fired and done.value.ok
    assert done.value.body["n"] == 2
    assert metrics.snapshot()["hedges"] == 1
    assert metrics.snapshot()["hedge.wins"] == 1
    sim.run()                          # the slow loser completes harmlessly
    assert client.bulkheads.get(instance.address).in_flight == 0


def test_hedging_skips_unsafe_posts(sim, network):
    instance = make_instance(sim)
    network.register(instance.address, ScriptedServer(sim, [3.0, 0.1]),
                     instance)
    client, metrics = client_with_metrics(sim, network)
    done = client.call(instance.address,
                       HttpRequest("POST", "/v1/execute"), safe=True)
    sim.run()
    assert done.value.ok and done.value.body["n"] == 1
    assert metrics.snapshot().get("hedges", 0) == 0


def test_client_blackholed_then_recovered_is_masked(sim, network):
    instance = make_instance(sim)
    network.register(instance.address, ScriptedServer(sim, [0.05]), instance)
    instance._blackhole()
    client, metrics = client_with_metrics(
        sim, network, hedge=False,
        policy=RetryPolicy(max_attempts=5, base_delay=0.5, deadline=60.0))
    done = client.call(instance.address, HttpRequest("GET", "/v1/x"),
                       timeout=2.0)

    def recover():
        instance.network_blackholed = False

    sim.schedule(3.0, recover)
    sim.run()
    assert done.value.ok               # a retry landed after recovery
    assert metrics.snapshot()["retries"] >= 1


# ----------------------------------------------------- typed v1 RestClient


def make_v1_server(sim, network):
    instance = make_instance(sim)
    api = RestApi("catalog")
    api.get("/datasets/{dataset_id}",
            lambda req, p: RestCacheable({"id": p["dataset_id"]},
                                         etag="v7"),
            cacheable=True)
    RestServer(sim, api, instance).bind(network)
    return instance, api


def test_rest_client_revalidates_with_etag(sim, network):
    instance, _ = make_v1_server(sim, network)
    client = RestClient(sim, network, instance.address)
    first = client.request("GET", "/v1/datasets/eden")
    sim.run()
    assert first.value.status == 200 and "X-Revalidated" not in \
        first.value.headers
    second = client.request("GET", "/v1/datasets/eden")
    sim.run()
    # the 304 was transparently replaced with the cached representation
    assert second.value.status == 200
    assert second.value.body == {"id": "eden"}
    assert second.value.headers["X-Revalidated"] == "true"
    assert client.revalidated_hits == 1


def test_versioned_routes_are_the_only_routes(sim, network):
    instance, api = make_v1_server(sim, network)
    client = RestClient(sim, network, instance.address)

    described = client.request("GET", "/v1")
    sim.run()
    doc = described.value.body
    assert doc["version"] == "v1"
    paths = {(r["method"], r["path"]) for r in doc["routes"]}
    assert ("GET", "/v1/datasets/{dataset_id}") in paths
    assert all(path.startswith("/v1") for _m, path in paths)

    # the pattern as registered, without the version prefix, is no route
    bare = network.request(instance.address,
                           HttpRequest("GET", "/datasets/eden"))
    versioned = network.request(instance.address,
                                HttpRequest("GET", "/v1/datasets/eden"))
    sim.run()
    assert bare.value.status == 404
    assert bare.value.body["retryable"] is False
    assert versioned.value.ok
    for response in (bare.value, versioned.value):
        assert "Deprecation" not in response.headers
        assert "Link" not in response.headers


# ------------------------------------------------- deployment integration


@pytest.mark.parametrize("kind", ["crash", "blackhole", "degrade"])
def test_no_user_visible_5xx_under_faults(kind):
    """FaultInjector storms through RestClient: users never see a 5xx."""
    evop = Evop(EvopConfig(
        truth_days=3, storm_day=1, private_vcpus=12,
        sessions_per_replica=4, min_replicas=2,
        autoscale_interval=10.0, seed=11,
    )).bootstrap()
    evop.run_for(400.0)
    service = evop.lb.service("left-morland")
    process_id = "topmodel-morland"

    sessions = [evop.rb.connect(f"user-{i}", "left-morland")
                for i in range(4)]
    evop.run_for(60.0)

    def inject():
        victim = service.serving()[0]
        if kind == "crash":
            evop.injector.crash(victim)
        elif kind == "blackhole":
            evop.injector.blackhole(victim)
        else:
            evop.injector.degrade(victim, speed_multiplier=1e-6)

    evop.sim.schedule(90.0, inject)

    responses = []
    horizon = 900.0
    start = evop.sim.now

    def user(session):
        client = RestClient(evop.sim, evop.network,
                            lambda: session.instance_address,
                            resilient=evop.resilient,
                            trace=session.trace_context)
        while evop.sim.now < start + horizon:
            reply = yield client.describe_process(process_id)
            responses.append(reply)
            yield 30.0

    for session in sessions:
        evop.sim.spawn(user(session), name=f"user.{session.session_id}")
    evop.run_for(horizon + 900.0)

    assert len(responses) > 20
    bad = [r for r in responses
           if not (isinstance(r, HttpResponse) and r.ok)]
    assert bad == [], f"{kind}: users saw {len(bad)} errors: {bad[:3]}"
    # the masking was real work, not luck: the fabric retried
    assert evop.resilience_metrics.snapshot()["retries"] >= 1
