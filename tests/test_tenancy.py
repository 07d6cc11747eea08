r"""First-class tenancy: DRR fairness, token buckets, the /v1 boundary.

Pins the plane's load-bearing guarantees:

* identity is total: a request, session or launch that names nobody is
  the ``default`` tenant's — same bucket, DRR lane, ledger row,
  idempotency record and ``requests{tenant=default}`` counter as one
  that says ``default`` — and every API an estate publishes (WPS, read,
  SOS, observability) sits behind the same boundary;
* deficit round robin is work-conserving, weighted within one quantum,
  and serves in arrival order while only one lane has work;
* the token bucket is a pure function of simulation time — admission
  decisions and ``Retry-After`` are deterministic;
* the ``Tenant`` header contract at the boundary: 400 malformed, 403
  strict-unknown, 401 missing-under-require, 429 with ``Retry-After``
  and ``X-RateLimit-*`` on exhaustion;
* idempotency keys are tenant-scoped — the same key from two tenants
  never replays across the boundary;
* per-tenant vcpu quotas in the capacity ledger, shed/guard events
  stamped with the tenant, and the admin console's tenants section.

No layer below the ways in re-tests for a missing identity.  The check::

    git grep -nE "tenant is (not )?None|tenants is (not )?None|getattr\(.*\"tenant\", None\)" src/repro

returns only the four format-boundary lines, where what is written
follows what the caller sent rather than who the caller is:

* ``services/client.py`` — ``RestClient`` stamps a ``Tenant`` header
  only when it was given a tenant;
* ``services/transport.py`` — the client span is labelled with the
  header the request carries, if any;
* ``services/wps.py`` (two) — a run payload and an async status
  document carry a ``tenant`` key only when the Execute carried the
  header (``RunSummaryView`` rows are inside the e2e digests).
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import PrivateFirstPolicy, ResourceBroker, SessionTable
from repro.cloud import BlobStore, ImageKind, ImageStore
from repro.services import InputSpec, ProcessDescription, WpsProcess, \
    WpsService
from repro.services.client import RestClient
from repro.core.cell import Cell
from repro.core.config import EvopConfig
from repro.core.evop import Evop
from repro.core.admin import AdminConsole
from repro.geo import GeoRouter, RegionGuard, RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.obs.refusal import refused
from repro.perf.keys import content_key
from repro.sched import (
    CapacityLedger,
    ClassedQueue,
    Dispatcher,
    PriorityClass,
)
from repro.services import Network, PushGateway, RestApi
from repro.services.idempotency import (PENDING_TTL, IdempotencyIndex,
                                        request_fingerprint)
from repro.services.transport import HttpRequest
from repro.sim import RandomStreams, Simulator
from repro.tenancy import (
    DEFAULT_TENANT,
    RateLimiter,
    TENANT_HEADER,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    jain_index,
    valid_tenant_id,
)


def _advance(sim, seconds):
    """Move the simulation clock forward even with an empty agenda."""
    sim.schedule(seconds, lambda: None)
    sim.run(until=sim.now + seconds)


# -- identity and fairness math ----------------------------------------------


def test_tenant_id_validation():
    assert valid_tenant_id("org-1")
    assert valid_tenant_id("a")
    assert valid_tenant_id("flood_corp-2")
    assert not valid_tenant_id("")
    assert not valid_tenant_id("-leading-dash")
    assert not valid_tenant_id("Uppercase")
    assert not valid_tenant_id("has space")
    assert not valid_tenant_id("x" * 65)
    assert not valid_tenant_id(None)
    assert not valid_tenant_id(42)


def test_jain_index_edges():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=20))
def test_jain_index_bounds_and_scale_invariance(shares):
    value = jain_index(shares)
    assert 1.0 / len(shares) - 1e-9 <= value <= 1.0 + 1e-9
    if sum(shares) > 0:
        scaled = jain_index([3.5 * x for x in shares])
        assert scaled == pytest.approx(value)


# -- DRR class-queue properties ----------------------------------------------


_tenant_ids = st.sampled_from(["org-a", "org-b", "org-c", "org-d"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(), max_size=60),
       st.lists(st.integers(min_value=0, max_value=5), max_size=20))
def test_single_lane_is_fifo(items, pop_pattern):
    """With only the default lane, pops interleaved with pushes are FIFO."""
    queue = ClassedQueue()
    model = deque()
    iterator = iter(items)
    for burst in pop_pattern:
        try:
            item = next(iterator)
        except StopIteration:
            break
        queue.push(item)
        model.append(item)
        for _ in range(burst):
            got = queue.pop()
            want = model.popleft() if model else None
            if want is None:
                assert got is None
            else:
                assert got == (want, PriorityClass.INTERACTIVE,
                               DEFAULT_TENANT)
    for item in iterator:
        queue.push(item)
        model.append(item)
    while model:
        assert queue.pop() == (model.popleft(), PriorityClass.INTERACTIVE,
                               DEFAULT_TENANT)
    assert queue.pop() is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(PriorityClass)),
                          st.booleans()), max_size=60))
def test_default_lane_alone_serves_in_arrival_order(arrivals):
    """DRR with only the default lane is arrival order within each class,
    whichever way the default tenant was spelled at enqueue."""
    dispatcher = Dispatcher(Simulator())
    dispatcher.register("svc")
    for n, (cls, named) in enumerate(arrivals):
        spelled = {"tenant": DEFAULT_TENANT} if named else {}
        assert dispatcher.enqueue("svc", n, cls, **spelled)
    expected = [n for cls in PriorityClass
                for n, (arrived_in, _) in enumerate(arrivals)
                if arrived_in == cls]
    projected = [n for cls in PriorityClass
                 for n in dispatcher.queue("svc").items(cls)]
    served = []
    while True:
        entry = dispatcher.dequeue("svc")
        if entry is None:
            break
        served.append(entry[0])
    assert projected == served == expected
    assert sum(dispatcher.tenants.served.values()) == len(arrivals)
    assert set(dispatcher.tenants.served) <= {DEFAULT_TENANT}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_tenant_ids,
                          st.sampled_from(list(PriorityClass)),
                          st.integers()),
                max_size=80))
def test_drain_is_work_conserving_and_lane_fifo(pushes):
    """Everything pushed comes back out, FIFO within (class, tenant)."""
    queue = ClassedQueue()
    expected_lanes = {}
    for tenant, cls, item in pushes:
        assert queue.push(item, cls, tenant=tenant)
        expected_lanes.setdefault((cls, tenant), deque()).append(item)
    assert queue.depth() == len(pushes)
    served_classes = []
    while True:
        entry = queue.pop()
        if entry is None:
            break
        item, cls, tenant = entry
        served_classes.append(cls)
        lane = expected_lanes[(cls, tenant)]
        assert item == lane.popleft()
    assert all(not lane for lane in expected_lanes.values())
    assert queue.depth() == 0
    # strict priority: every INTERACTIVE before any WORKFLOW before BATCH
    assert served_classes == sorted(served_classes)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6))
def test_weighted_share_exact_with_integer_quanta(wa, wb, rounds):
    """Backlogged integer-weight lanes split rounds exactly wa : wb."""
    queue = ClassedQueue()
    total = rounds * (wa + wb)
    for i in range(2 * total):
        queue.push(("a", i), tenant="org-a", weight=float(wa))
        queue.push(("b", i), tenant="org-b", weight=float(wb))
    served = {"org-a": 0, "org-b": 0}
    for _ in range(total):
        _, _, tenant = queue.pop()
        served[tenant] += 1
    assert served["org-a"] == rounds * wa
    assert served["org-b"] == rounds * wb


def test_fractional_weight_accrues_across_rounds():
    """A weight-0.5 lane is served once every two rounds, not starved."""
    queue = ClassedQueue()
    for i in range(20):
        queue.push(("slow", i), tenant="slow", weight=0.5)
        queue.push(("fast", i), tenant="fast", weight=1.0)
    order = [queue.pop()[2] for _ in range(12)]
    assert order.count("slow") == 4
    assert order.count("fast") == 8
    # the slow lane is interleaved, never pushed to the end
    assert "slow" in order[:3]


def test_front_push_served_next_and_promotes_tenant():
    queue = ClassedQueue()
    for i in range(3):
        queue.push(("a", i), tenant="org-a")
        queue.push(("b", i), tenant="org-b")
    first = queue.pop()
    assert first[0] == ("a", 0)
    # a displaced item re-enters at the head of its lane and rotation
    queue.push(("a", "displaced"), tenant="org-a", front=True)
    assert queue.pop()[0] == ("a", "displaced")


def test_projected_items_match_actual_service_order():
    queue = ClassedQueue()
    for i in range(4):
        queue.push(("a", i), tenant="org-a", weight=2.0)
        queue.push(("b", i), tenant="org-b", weight=1.0)
    projection = queue.items(PriorityClass.INTERACTIVE)
    actual = []
    while queue.depth():
        actual.append(queue.pop()[0])
    assert projection == actual


def test_bounded_class_sheds_and_attributes_tenant():
    sim = Simulator()
    dispatcher = Dispatcher(sim, bounds={PriorityClass.BATCH: 2})
    dispatcher.register("svc")
    queue = dispatcher.queue("svc")
    assert dispatcher.enqueue("svc", "x", PriorityClass.BATCH, tenant="org-a")
    assert dispatcher.enqueue("svc", "y", PriorityClass.BATCH, tenant="org-b")
    assert not dispatcher.enqueue("svc", "z", PriorityClass.BATCH,
                                  tenant="org-b")
    assert queue.shed[PriorityClass.BATCH] == 1
    # the queue counts the shed; who suffered it is the refusal's to say
    assert refused(sim, cause="queue_full", tenant="org-b") == 1
    assert refused(sim, cause="queue_full") == 1
    # unbounded classes never shed
    assert queue.push("i", PriorityClass.INTERACTIVE, tenant="org-b")


def test_emptied_lane_forfeits_deficit():
    """Credit never outlives a backlog: a returning lane starts fresh."""
    queue = ClassedQueue()
    queue.push("a1", tenant="org-a", weight=4.0)
    queue.push("b1", tenant="org-b", weight=1.0)
    queue.push("b2", tenant="org-b")
    assert queue.pop()[2] == "org-a"     # banked 4, spent 1, lane empty
    assert queue.pop()[2] == "org-b"
    queue.push("a2", tenant="org-a")
    queue.push("b3", tenant="org-b")
    # org-a's leftover 3.0 deficit died with its lane: org-b is not
    # locked out while org-a spends stale credit
    order = [queue.pop()[2] for _ in range(3)]
    assert order.count("org-b") == 2


def test_dispatcher_records_service_in_registry():
    sim = Simulator()
    registry = TenantRegistry(specs=[TenantSpec("org-a", weight=2.0),
                                     TenantSpec("org-b")])
    dispatcher = Dispatcher(sim)
    dispatcher.attach_tenants(registry)
    dispatcher.register("svc")
    for i in range(6):
        dispatcher.enqueue("svc", f"a{i}", tenant="org-a")
        dispatcher.enqueue("svc", f"b{i}", tenant="org-b")
    for _ in range(6):
        dispatcher.dequeue("svc")
    # weight 2 tenant legitimately served 2:1 — fairness still 1.0
    assert registry.served == {"org-a": 4.0, "org-b": 2.0}
    assert registry.fairness() == pytest.approx(1.0)
    assert dispatcher.tenant_depths() == {"org-a": 2, "org-b": 4}


# -- token bucket and rate limiter -------------------------------------------


def test_token_bucket_is_deterministic_on_sim_time():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, burst=3.0)
    assert bucket.level() == 3.0
    assert all(bucket.try_take() for _ in range(3))
    assert not bucket.try_take()
    assert bucket.retry_after() == pytest.approx(1.0)
    _advance(sim, 1.0)
    assert bucket.try_take()
    assert not bucket.try_take()
    _advance(sim, 100.0)
    assert bucket.level() == 3.0    # capped at burst


def test_rate_decision_headers():
    limiter = RateLimiter(Simulator(), TenantRegistry(
        specs=[TenantSpec("org-a", rate=2.0, burst=4.0)]))
    allowed = limiter.check("org-a")
    assert allowed.allowed
    headers = allowed.headers()
    assert headers["X-RateLimit-Limit"] == "4"
    assert "Retry-After" not in headers
    for _ in range(3):
        limiter.check("org-a")
    denied = limiter.check("org-a")
    assert not denied.allowed
    headers = denied.headers()
    assert float(headers["Retry-After"]) >= 1.0
    assert headers["X-RateLimit-Remaining"] == "0"
    assert limiter.allowed == 4 and limiter.throttled == 1


def test_rate_limiter_spec_overrides_and_unlimited_default():
    sim = Simulator()
    registry = TenantRegistry(specs=[TenantSpec("metered", rate=1.0,
                                                burst=2.0)])
    limiter = RateLimiter(sim, registry)
    # a spec without a rate: unregistered tenants and the default are unlimited
    assert all(limiter.check(DEFAULT_TENANT).allowed for _ in range(50))
    assert all(limiter.check("stranger").allowed for _ in range(50))
    assert limiter.fill("stranger") is None
    assert limiter.check("metered").allowed
    assert limiter.check("metered").allowed
    assert not limiter.check("metered").allowed
    snapshot = limiter.snapshot()
    assert snapshot["buckets"]["metered"]["burst"] == 2.0
    assert snapshot["throttled"] == 1


# -- registry ----------------------------------------------------------------


def test_registry_membership_and_default_policy():
    registry = TenantRegistry()
    assert registry.known(DEFAULT_TENANT)
    assert not registry.known("stranger")
    assert registry.weight_of("stranger") == 1.0
    assert registry.spec_of("stranger").vcpu_quota is None
    registry.register(TenantSpec("vip", weight=3.0, vcpu_quota=8.0))
    assert registry.weight_of("vip") == 3.0
    assert registry.spec_of("vip").vcpu_quota == 8.0
    assert "vip" in registry.tenants()


def test_registry_snapshot_includes_unregistered_served():
    registry = TenantRegistry()
    for _ in range(5):
        registry.record_service("drive-by")
    snapshot = registry.snapshot()
    assert snapshot["drive-by"]["served"] == 5.0
    assert snapshot["drive-by"]["weight"] == 1.0


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("Bad Tenant")
    with pytest.raises(ValueError):
        TenantSpec("ok", weight=-1.0)
    with pytest.raises(ValueError):
        TenantSpec("ok", rate=0.0)


# -- capacity ledger tenant quotas -------------------------------------------


def test_ledger_enforces_tenant_quota():
    sim = Simulator()
    ledger = CapacityLedger(sim)
    ledger.set_tenant_quota("org-a", 8.0)
    assert ledger.admit("private", 4, tenant="org-a")
    ledger.commit("private", 4, tenant="org-a")
    assert ledger.admit("private", 4, tenant="org-a")
    ledger.commit("private", 4, tenant="org-a")
    # quota spent: the next launch is refused estate-wide
    assert not ledger.admit("private", 4, tenant="org-a")
    assert not ledger.admit("public", 4, tenant="org-a")
    assert ledger.refusals == 2
    assert refused(sim, cause="tenant_quota", tenant="org-a") == 2
    # other tenants and unattributed launches are untouched
    assert ledger.admit("private", 4, tenant="org-b")
    assert ledger.admit("private", 4)
    ledger.release("private", 4, tenant="org-a")
    assert ledger.admit("private", 4, tenant="org-a")
    assert ledger.committed_by_tenant() == {"org-a": 4}


def test_ledger_quota_set_and_clear():
    ledger = CapacityLedger(Simulator())
    ledger.set_tenant_quota("org-a", 2.0)
    assert not ledger.admit("private", 4, tenant="org-a")
    ledger.set_tenant_quota("org-a", None)
    assert ledger.admit("private", 4, tenant="org-a")


# -- tenant-scoped idempotency -----------------------------------------------


def test_idempotency_keys_are_tenant_scoped():
    sim = Simulator()
    store = BlobStore(sim, name="idem-test")
    index = IdempotencyIndex(sim, store.create_container("idempotency"))
    fp = request_fingerprint("POST", "/runs", {"x": 1})

    first = index.admit("key-1", fp, tenant="org-a")
    assert first.kind == "fresh"
    assert index.record(first, 200, {"run": 1})
    # the same key from another tenant is an unrelated fresh request
    other = index.admit("key-1", fp, tenant="org-b")
    assert other.kind == "fresh"
    # and from nobody in particular: the default tenant's, also fresh
    unnamed = index.admit("key-1", fp)
    assert unnamed.kind == "fresh"
    # the same tenant retrying replays the original
    retry = index.admit("key-1", fp, tenant="org-a")
    assert retry.kind == "replay"
    assert retry.response["body"] == {"run": 1}
    assert index.replays == 1
    # conflicts are tenant-scoped too
    conflict = index.admit("key-1",
                           request_fingerprint("POST", "/runs", {"x": 2}),
                           tenant="org-a")
    assert conflict.kind == "conflict"
    index.forget(other)
    assert index.admit("key-1", fp, tenant="org-b").kind == "fresh"
    # one record for the default tenant, however it is spelled: a retry
    # that names ``default`` replays what the unnamed attempt recorded
    assert index.record(unnamed, 200, {"run": 0})
    named = index.admit("key-1", fp, tenant=DEFAULT_TENANT)
    assert named.kind == "replay" and named.response["body"] == {"run": 0}


def test_idempotency_ticket_carries_the_slot_and_fences_a_stale_record():
    sim = Simulator()
    container = BlobStore(sim).create_container("idempotency")
    index = IdempotencyIndex(sim, container)
    fp = request_fingerprint("POST", "/runs", {"x": 1})
    # the slot is the string the index always derived from (tenant, key)
    tickets = {(tenant, key): index.admit(key, fp, tenant=tenant)
               for tenant in ("org-a", DEFAULT_TENANT)
               for key in ("k", "key with spaces")}
    for (tenant, key), ticket in tickets.items():
        assert ticket.slot == f"idem/{content_key((tenant, key))}"
    assert sorted(t.slot for t in tickets.values()) == \
        container.list(prefix="idem/")
    # the executor dies; once the reservation lapses a retry takes over
    dead = tickets[("org-a", "k")]
    assert index.admit("k", fp, tenant="org-a").kind == "pending"
    sim.run(until=PENDING_TTL + 1.0)
    retry = index.admit("k", fp, tenant="org-a")
    assert (retry.kind, retry.epoch, retry.slot) == \
        ("fresh", dead.epoch + 1, dead.slot)
    assert index.takeovers == 1
    # the dead attempt's late record is fenced by its epoch
    assert index.record(dead, 200, {"run": "late"}) is False
    assert index.record(retry, 200, {"run": "retry"}) is True
    assert index.admit("k", fp, tenant="org-a").response["body"] == \
        {"run": "retry"}


def _lapsed_and_taken_over():
    """A lapses mid-flight and B takes its reservation over."""
    sim = Simulator()
    index = IdempotencyIndex(sim, BlobStore(sim).create_container("idem"))
    fp = request_fingerprint("POST", "/runs", {"x": 1})
    slow = index.admit("k", fp, tenant="org-a")
    sim.run(until=PENDING_TTL + 1.0)
    takeover = index.admit("k", fp, tenant="org-a")
    assert takeover.kind == "fresh" and index.takeovers == 1
    return index, fp, slow, takeover


def test_idempotency_forget_keeps_the_epoch_so_a_stale_record_stays_fenced():
    index, fp, slow, takeover = _lapsed_and_taken_over()
    # B answers 5xx: its reservation is given up, and pins nothing
    index.forget(takeover)
    retry = index.admit("k", fp, tenant="org-a")
    assert retry.kind == "fresh"
    # ... but the slot's epoch went on rising, so A is still fenced
    assert slow.epoch < takeover.epoch < retry.epoch
    assert index.record(slow, 200, {"run": "A"}) is False
    # no replay of A's body while C is still running
    assert index.admit("k", fp, tenant="org-a").kind == "pending"
    assert index.record(retry, 200, {"run": "C"}) is True
    assert index.admit("k", fp, tenant="org-a").response["body"] == \
        {"run": "C"}


def test_idempotency_stale_forget_leaves_the_new_reservation_alone():
    index, fp, slow, takeover = _lapsed_and_taken_over()
    # A answers 5xx late: it no longer holds the slot, so nothing changes
    index.forget(slow)
    assert index.admit("k", fp, tenant="org-a").kind == "pending"
    assert index.record(takeover, 200, {"run": "B"}) is True
    assert index.admit("k", fp, tenant="org-a").response["body"] == \
        {"run": "B"}


# -- the /v1 boundary ---------------------------------------------------------


class _Rig:
    """One serving replica behind the scheduling plane."""

    def __init__(self, replicas=1, sessions_per_replica=4,
                 strict_capacity=False):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=7)
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        cell = Cell(self.sim, self.streams, self.network, self.sessions,
                    CapacityLedger(self.sim), region="test", private_vcpus=64,
                    shards=1, health_interval=1.0e9, health_window=3,
                    autoscale_interval=5.0, policy=PrivateFirstPolicy())
        self.private, self.public = cell.private, cell.public
        self.multi, self.monitor = cell.multicloud, cell.monitor
        self.lbs, self.lb, self.sched = cell.lbs, cell.lbs[0], cell.router
        self.lb.strict_capacity = strict_capacity
        self.images = ImageStore()
        self.api = RestApi("svc")
        self.api.get("/ping", lambda req, p: {"pong": True})
        cell.publish(
            "svc", self.api,
            self.images.create("portal", ImageKind.GENERIC, size_gb=1.0),
            sessions_per_replica=sessions_per_replica,
            min_replicas=replicas, max_replicas=replicas)
        self.sim.run(until=600.0)
        self.address = self.sched.services()[0].serving()[0].address

    def call(self, headers=None, path="/v1/ping", method="GET", body=None):
        signal = self.network.request(
            self.address, HttpRequest(method, path, body=body,
                                      headers=headers or {}))
        self.sim.run(until=self.sim.now + 10.0)
        return signal.value


def test_boundary_passes_valid_tenant_and_labels_metrics():
    rig = _Rig()
    registry = TenantRegistry(specs=[TenantSpec("org-a")])
    rig.api.tenants = registry
    rig.api.limiter = RateLimiter(rig.sim, registry)
    response = rig.call({TENANT_HEADER: "org-a"})
    assert response.status == 200
    metrics = obs_of(rig.sim).api_metrics.sub("svc")
    assert metrics.counter("requests", tenant="org-a").value == 1


def test_boundary_rejects_malformed_tenant():
    rig = _Rig()
    rig.api.tenants = TenantRegistry()
    response = rig.call({TENANT_HEADER: "Not A Tenant!"})
    assert response.status == 400
    assert response.body["type"].endswith("invalid-tenant")


def test_boundary_strict_registry_refuses_unknown():
    rig = _Rig()
    rig.api.tenants = TenantRegistry(specs=[TenantSpec("org-a")],
                                     strict=True)
    assert rig.call({TENANT_HEADER: "org-a"}).status == 200
    denied = rig.call({TENANT_HEADER: "stranger"})
    assert denied.status == 403
    assert denied.body["type"].endswith("unknown-tenant")
    # permissive mode admits the same stranger on default policy
    rig.api.tenants.strict = False
    assert rig.call({TENANT_HEADER: "stranger"}).status == 200


def test_boundary_requires_tenant_when_configured():
    rig = _Rig()
    rig.api.tenants = TenantRegistry()
    rig.api.tenants.require_tenant = True
    denied = rig.call()
    assert denied.status == 401
    assert denied.body["type"].endswith("tenant-required")
    assert rig.call({TENANT_HEADER: "org-a"}).status == 200


def test_boundary_throttles_with_retry_after_and_ratelimit_headers():
    rig = _Rig()
    registry = TenantRegistry(specs=[TenantSpec("burst", rate=0.5,
                                                burst=2.0)])
    rig.api.tenants = registry
    rig.api.limiter = RateLimiter(rig.sim, registry)
    signals = []

    def fire(delay, headers):
        rig.sim.schedule(delay, lambda: signals.append(rig.network.request(
            rig.address, HttpRequest("GET", "/v1/ping", headers=headers))))

    # four rapid-fire requests against a burst of 2 (refill is 0.5/s,
    # far too slow to matter over 0.6s), plus one from another tenant
    for i in range(4):
        fire(0.2 * i, {TENANT_HEADER: "burst"})
    fire(0.7, {TENANT_HEADER: "org-other"})
    rig.sim.run(until=rig.sim.now + 10.0)
    statuses = [s.value.status for s in signals[:4]]
    assert statuses == [200, 200, 429, 429]
    denied = signals[2].value
    assert denied.body["type"].endswith("rate-limited")
    assert denied.body["retryable"] is True
    assert denied.body["tenant"] == "burst"
    assert float(denied.headers["Retry-After"]) >= 1.0
    assert denied.headers["X-RateLimit-Limit"] == "2"
    # other tenants ride their own buckets
    assert signals[4].value.status == 200
    # and the bucket refills with simulation time
    _advance(rig.sim, 30.0)
    assert rig.call({TENANT_HEADER: "burst"}).status == 200
    assert refused(rig.sim, cause="rate_limited", tenant="burst") == 2
    assert refused(rig.sim) == 2
    assert denied.body["cause"] == "rate_limited"


_SPELLINGS = [pytest.param(None, id="unnamed"),
              pytest.param(DEFAULT_TENANT, id="named-default")]


@pytest.mark.parametrize("second", _SPELLINGS)
@pytest.mark.parametrize("first", _SPELLINGS)
def test_default_tenant_is_one_principal_however_spelled(first, second):
    """Saying nothing and saying ``default`` land on the same bucket,
    idempotency record, RED counter, DRR lane and ledger row."""
    def header(spelling):
        return {} if spelling is None else {TENANT_HEADER: spelling}

    def named(spelling):
        return {} if spelling is None else {"tenant": spelling}

    rig = _Rig(replicas=1, sessions_per_replica=1, strict_capacity=True)
    # -- REST: a bucket of two, one keyed mutation
    executions = []
    rig.api.post("/runs",
                 lambda req, p: executions.append(1) or {"run": "r-1"})
    rig.api.idempotency = IdempotencyIndex(
        rig.sim, BlobStore(rig.sim, name="idem").create_container("idem"))
    rig.api.tenants.register(TenantSpec(DEFAULT_TENANT, rate=1e-6,
                                        burst=2.0))
    rig.api.limiter = RateLimiter(rig.sim, rig.api.tenants)

    def post(spelling):
        return rig.call({"Idempotency-Key": "K", **header(spelling)},
                        path="/v1/runs", method="POST", body={"x": 1})

    original, retry, third = post(first), post(second), post(first)
    assert original.status == 200 and len(executions) == 1
    assert retry.headers["Idempotency-Replayed"] == "true"
    assert (retry.status, retry.body) == (200, original.body)
    assert third.status == 429          # the shared bucket is spent
    assert list(rig.api.limiter.snapshot()["buckets"]) == [DEFAULT_TENANT]
    metrics = obs_of(rig.sim).api_metrics.sub("svc")
    assert metrics.counter("requests", tenant="default").value == 3
    assert refused(rig.sim, cause="rate_limited", tenant="default") == 1
    # -- sessions: the replica has one slot; the rest wait on one lane
    sessions = [rig.sessions.create(f"user-{i}", **named(spelling))
                for i, spelling in enumerate((first, second, first))]
    for session in sessions:
        rig.sched.submit_session(session, "svc")
    assert [s.tenant for s in sessions] == [DEFAULT_TENANT] * 3
    assert [s.state.value for s in sessions] == \
        ["active", "waiting", "waiting"]
    assert rig.sched.tenant_depths() == {DEFAULT_TENANT: 2}
    assert rig.sched.tenants.served == {DEFAULT_TENANT: 1.0}
    assert rig.sched.metrics.counter("submit", tenant="default").value == 3
    # -- ledger: one row, one quota; an unowned pool is the default's
    assert rig.lb.service("svc").tenant == DEFAULT_TENANT
    ledger = CapacityLedger(rig.sim)
    ledger.set_tenant_quota(DEFAULT_TENANT, 6)
    ledger.commit("private", 4, **named(first))
    ledger.commit("private", 2, **named(second))
    assert ledger.committed_by_tenant() == {DEFAULT_TENANT: 6}
    assert not ledger.admit("private", 1, **named(first))
    assert not ledger.admit("private", 1, **named(second))
    ledger.release("private", 2, **named(first))
    assert ledger.admit("private", 1, **named(second))


@pytest.mark.parametrize("sent", [None, "org-a", DEFAULT_TENANT],
                         ids=["no-header", "org-a", "default-by-name"])
def test_formats_carry_the_tenant_that_was_sent_and_no_other(sent):
    """Identity is total; formats are not rewritten.  A run payload, an
    async status document and a client's request carry a tenant only
    when one was given — the default is never written in its place."""
    rig = _Rig()
    wps = WpsService(rig.sim, "models",
                     BlobStore(rig.sim, name="wps").create_container("st"))
    wps.add_process(WpsProcess(
        ProcessDescription(identifier="double", title="Doubler",
                           inputs=[InputSpec("x", "float")]),
        run=lambda inputs: {"y": inputs["x"] * 2},
        cost=lambda inputs: inputs["x"]))
    published = []

    class _Outbox:
        def record(self, stream, kind, key="", payload=None):
            published.append((kind, payload))

    wps.attach_outbox(_Outbox())
    replica = rig.sched.services()[0].serving()[0]
    wps.replica(replica).bind(rig.network)      # takes over the address
    wps.api.get("/echo", lambda req, p: {"got": req.headers.get(
        TENANT_HEADER)})
    client = RestClient(rig.sim, rig.network, rig.address,
                        **({} if sent is None else {"tenant": sent}))
    echoed = client.request("GET", "/v1/echo")
    client.execute_wps("double", {"x": 0.01})
    rig.sim.run(until=rig.sim.now + 30.0)
    # the async run costs 500 core-seconds: still ``accepted`` when read
    client.execute_wps("double", {"x": 500.0}, mode="async")
    rig.sim.run(until=rig.sim.now + 30.0)
    assert echoed.value.body == {"got": sent}
    assert [kind for kind, _ in published] == \
        ["run.submitted", "run.finished", "run.submitted"]
    (execution,) = wps.status.list()
    accepted = wps.status.get(execution).payload
    assert accepted["status"] == "accepted"
    documents = [payload for _, payload in published] + [accepted]
    if sent is None:
        assert not any("tenant" in document for document in documents)
    else:
        assert all(document["tenant"] == sent for document in documents)


def test_sessions_carry_tenant_through_broker_and_shed_events():
    rig = _Rig(replicas=1, sessions_per_replica=2, strict_capacity=True)
    registry = TenantRegistry(specs=[TenantSpec("org-a"),
                                     TenantSpec("org-b")])
    rig.sched.attach_tenants(registry)
    gateway = PushGateway(rig.sim, rig.sched.services()[0].serving()[0],
                          streams=rig.streams)
    rb = ResourceBroker(rig.sim, rig.sched, rig.sessions, gateway)
    events = obs_of(rig.sim).events
    session = rb.connect("farmer-1", "svc", tenant="org-a")
    assert session.tenant == "org-a"
    connects = events.events("rb.connect")
    assert connects and connects[-1].fields["tenant"] == "org-a"
    # fill the replica, then queue one per tenant: depths are per tenant
    rb.connect("farmer-2", "svc", tenant="org-a")
    rb.connect("farmer-3", "svc", tenant="org-a")
    rb.connect("eng-1", "svc", tenant="org-b")
    depths = rig.sched.tenant_depths()
    assert depths.get("org-a") == 1 and depths.get("org-b") == 1
    assert registry.served["org-a"] == 2.0


def test_dispatcher_shed_event_stamps_tenant():
    sim = Simulator()
    dispatcher = Dispatcher(sim, bounds={PriorityClass.BATCH: 1})
    dispatcher.register("svc")
    assert dispatcher.enqueue("svc", "x", PriorityClass.BATCH,
                              tenant="org-a")
    assert not dispatcher.enqueue("svc", "y", PriorityClass.BATCH,
                                  tenant="org-b")
    shed = obs_of(sim).events.events("refused")
    assert shed and shed[-1].fields["tenant"] == "org-b"
    assert shed[-1].fields["cause"] == "queue_full"
    assert refused(sim, tenant="org-b") == 1
    # untenanted sheds are attributed to the default principal
    assert not dispatcher.enqueue("svc", "z", PriorityClass.BATCH)
    shed = obs_of(sim).events.events("refused")
    assert shed[-1].fields["tenant"] == DEFAULT_TENANT


def test_region_guard_stamps_tenant_on_503():
    sim = Simulator()
    topo = RegionTopology(sim, ["eu", "us"])

    class _StubRouter:
        def submit_session(self, *a, **k):
            return 0

    geo = GeoRouter(sim, topo, {r: _StubRouter() for r in topo.regions()})
    guard = RegionGuard(geo, "eu")
    topo.mark("eu", RegionStatus.DEGRADED)
    topo.mark("us", RegionStatus.DOWN)
    denial = guard(HttpRequest("GET", "/v1/ping",
                               headers={TENANT_HEADER: "org-a"}))
    assert denial.status == 503
    assert denial.body["tenant"] == "org-a"
    assert refused(sim, cause="region_degraded", tenant="org-a") == 1
    # anonymous sheds land on the default principal
    guard(HttpRequest("GET", "/v1/ping"))
    assert refused(sim, cause="region_degraded", tenant=DEFAULT_TENANT,
                   region="eu") == 1
    sheds = obs_of(sim).events.events("refused")
    assert len(sheds) == 2 and sheds[0].fields["tenant"] == "org-a"


# -- the deployment facade and admin console ---------------------------------


def test_evop_enable_tenancy_and_admin_console_section():
    evop = Evop()
    console = AdminConsole(evop)
    # the estate has a tenant model from construction: one tenant
    registry, limiter = evop.tenants, evop.ratelimit
    assert list(console.status()["tenancy"]["tenants"]) == [DEFAULT_TENANT]
    assert evop.enable_tenancy(
        specs=[TenantSpec("org-a", weight=2.0, rate=5.0, vcpu_quota=8.0)]
    ) is registry
    evop.tenants.require_tenant = True
    # policy lands on the two shared objects; nothing is rebuilt
    assert evop.tenants is registry and evop.ratelimit is limiter
    assert evop.sched.tenants is registry
    assert all(lb.dispatcher.tenants is registry for lb in evop.sched.lbs)
    assert registry.require_tenant
    assert evop.ledger.tenant_quotas == {"org-a": 8.0}
    for _ in range(4):
        registry.record_service("org-a")
    evop.ratelimit.check("org-a")
    status = console.status()["tenancy"]
    assert status["tenants"]["org-a"]["weight"] == 2.0
    assert status["tenants"]["org-a"]["served"] == 4.0
    assert status["tenants"]["org-a"]["bucket"]["burst"] == 5.0
    assert DEFAULT_TENANT in status["tenants"]
    rendered = console.render()
    assert "tenants: fairness=" in rendered
    assert "org-a" in rendered


_PUBLISHED = {
    "wps": (lambda evop: evop.service_name("morland"), "/v1/wps"),
    "read": (lambda evop: evop.expose_read_api(), "/v1/catchments"),
    "sos": (lambda evop: evop.expose_sos(), "/v1/sos"),
    "observability": (lambda evop: evop.expose_observability(),
                      "/v1/observability/slo"),
}


@pytest.mark.parametrize("tenancy_first", [True, False],
                         ids=["tenancy-then-publish", "publish-then-tenancy"])
@pytest.mark.parametrize("api", sorted(_PUBLISHED))
def test_every_published_api_sits_behind_the_boundary(api, tenancy_first):
    """429 / 403 / 401 read the same on all four APIs, in either order."""
    evop = Evop(EvopConfig(truth_days=4, storm_day=2)).bootstrap()
    publish, path = _PUBLISHED[api]

    def tenancy():
        evop.enable_tenancy(specs=[TenantSpec("org-a", rate=1.0, burst=1.0)])

    if tenancy_first:
        tenancy()
    name = publish(evop)
    if not tenancy_first:
        tenancy()
    evop.run_for(600.0)
    address = next(s for s in evop.sched.services()
                   if s.name == name).serving()[0].address

    def get(headers):
        return evop.network.request(address,
                                    HttpRequest("GET", path, headers=headers))

    # one malformed probe spends nothing; then three back to back against
    # a bucket of one
    burst = [get({TENANT_HEADER: t})
             for t in ("Not A Tenant", "org-a", "org-a", "org-a")]
    evop.run_for(30.0)
    assert [s.value.status for s in burst] == [400, 200, 429, 429]
    assert evop.ratelimit.throttled == 2
    # strict and require_tenant are policy on the shared registry
    evop.tenants.strict = True
    stranger = get({TENANT_HEADER: "stranger"})
    evop.tenants.require_tenant = True
    unnamed = get({})
    evop.run_for(30.0)
    assert stranger.value.status == 403
    assert unnamed.value.status == 401
