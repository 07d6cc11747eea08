"""One refusal: every place the estate says *no* says it through one call.

Four parts.  **(a)** a table with one row per refusing site (16): drive
the site to refuse once, for a named tenant and for the unnamed default,
and require exactly one ``refused`` event and one counter increment,
a closed cause, the principal that was refused and the who / where the
site holds — "zero unattributed refusals".  **(b)** the wire, pinned
with the literals the tree sent before refusals were one call: status,
``type``, ``title``, ``retryable``, ``detail`` and every header held;
bodies gained ``cause`` and lost nothing.  **(c)** a random program of
(site, tenant) draws on one simulator: the counter, the event log and
an oracle that tallies by hand the way each site used to all agree, and
the five tallies the harness still reads equal their causes' sums.
**(d)** *why was this tenant refused*, asked over the wire.

The replaced forms (twelve event kinds, the hand tallies) live on here
as oracles and nowhere in ``src/``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.cloud.storage import BlobStore
from repro.core import Evop, EvopConfig
from repro.dataplane.consumers import DeadLetterQueue
from repro.dataplane.events import Event
from repro.durable import journal as j
from repro.durable import JournalStore
from repro.geo import (GeoLedger, GeoRouter, LeaderElection, RegionGuard,
                       RegionStatus, RegionTopology, qualify)
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse, refused
from repro.resilience import BreakerRegistry, ResilientClient, RetryPolicy
from repro.resilience.bulkhead import BulkheadGroup
from repro.sched import CapacityLedger, Dispatcher, PriorityClass
from repro.services.rest import RestApi, RestServer
from repro.services.soap import SoapServer
from repro.services.transport import HttpRequest, Network
from repro.sim import MetricsRegistry, Simulator
from repro.tenancy import (DEFAULT_TENANT, TENANT_HEADER, RateLimiter,
                           TenantRegistry, TenantSpec)

#: the event kinds the sites emitted before there was one (two of the
#: sixteen sites, and both server 503s and the 429, emitted none)
OLD_KINDS = {"sched.shed", "lb.shed", "lb.launch.quota_refused",
             "sched.quota.refused", "geo.guard.shed", "geo.route.refused",
             "geo.ledger.noleader", "geo.ledger.fenced",
             "durable.journal.fenced", "resilience.shed",
             "resilience.fastfail", "dataplane.dlq.parked"}

PRINCIPALS = ("org-a", "org-b", DEFAULT_TENANT)
TARGET = "replica.evop"


def named(tenant):
    """Keyword form of a principal; the unnamed one says nothing."""
    return {} if tenant is None else {"tenant": tenant}


def header(tenant):
    """Header form of a principal; the unnamed one sends none."""
    return {} if tenant is None else {TENANT_HEADER: tenant}


def _instance(sim, instance_id, max_queue=None):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("f", 1, 2048, 20))
    inst._mark_running()
    inst.max_queue = max_queue
    return inst


class _StubRouter:
    def submit_session(self, session, service_name, priority=None):
        return 0


class _StubSession:
    _ids = itertools.count()

    def __init__(self, tenant):
        self.session_id = f"s-{next(self._ids)}"
        self.tenant = DEFAULT_TENANT if tenant is None else tenant
        self.priority = None
        self.region = "eu"
        self.geo_service = "portal"


class World:
    """Every refusing site on one simulator, each wedged so that driving
    it once refuses exactly once — and can be driven again."""

    def __init__(self):
        sim = self.sim = Simulator()
        # sched: a batch class that holds nothing, a location with no
        # budget, and a zero quota for every principal
        self.dispatcher = Dispatcher(sim, shard_id=3,
                                     bounds={PriorityClass.BATCH: 0})
        self.dispatcher.register("svc")
        self.ledger = CapacityLedger(sim, capacity={"private": 0})
        for tenant in PRINCIPALS:
            self.ledger.set_tenant_quota(tenant, 0.0)
        # services: replicas whose accept queue takes nothing, and an
        # api behind buckets of one that are already spent
        self.network = Network(sim)
        api = RestApi("svc")
        api.get("/ping", lambda request, params: {"pong": True})
        self.full_rest = RestServer(
            sim, api, _instance(sim, "full-0", max_queue=0)).bind(self.network)
        self.full_soap = SoapServer(
            sim, "legacy", _instance(sim, "full-1", max_queue=0)
        ).bind(self.network)
        metered = RestApi("metered")
        metered.get("/ping", lambda request, params: {"pong": True})
        metered.tenants = TenantRegistry(specs=[
            TenantSpec(tenant, rate=1e-9, burst=1.0) for tenant in PRINCIPALS])
        self.limiter = metered.limiter = RateLimiter(sim, metered.tenants)
        for tenant in PRINCIPALS:
            assert self.limiter.check(tenant).allowed
        self.metered = RestServer(
            sim, metered, _instance(sim, "ok-0")).bind(self.network)
        # geo: every region down; a ledger whose election never ran
        down = RegionTopology(sim, ["eu", "us"])
        for region in down.regions():
            down.mark(region, RegionStatus.DOWN)
        self.georouter = GeoRouter(
            sim, down, {region: _StubRouter() for region in down.regions()})
        self.guard = RegionGuard(self.georouter, "eu")
        topology = RegionTopology(sim, ["eu", "us"])
        stores = {r: BlobStore(sim, name=f"{r}-store")
                  for r in topology.regions()}
        election = LeaderElection(
            sim, topology,
            {r: JournalStore(sim, stores[r], name="geo-election")
             for r in topology.regions()}, ttl=6.0, check_interval=1.0)
        self.geo_ledger = GeoLedger(sim, election)
        # resilience: an open breaker, a held slot with no waiting room,
        # a held slot with one waiter's worth
        self.resilience = MetricsRegistry(sim, namespace="resilience")
        once = RetryPolicy(max_attempts=1, deadline=60.0)

        def client(**kwargs):
            return ResilientClient(sim, self.network, service="portal",
                                   policy=once, hedge=False,
                                   metrics=self.resilience, **kwargs)

        self.tripped = client(breakers=BreakerRegistry(sim,
                                                       reset_timeout=1e12))
        breaker = self.tripped.breakers.get(
            BreakerRegistry.key("portal", TARGET))
        while breaker.state != "open":
            breaker.record_failure()
        self.crowded = client()
        self.crowded.bulkheads = BulkheadGroup(sim, max_in_flight=1,
                                               max_queue=0)
        self.queueing = client()
        self.queueing.bulkheads = BulkheadGroup(sim, max_in_flight=1,
                                                max_queue=1)
        for held in (self.crowded, self.queueing):
            assert held.bulkheads.get(TARGET).acquire().admitted
        # durable + dataplane
        blobs = BlobStore(sim, name="world")
        self.journals = JournalStore(sim, blobs)
        self.dlq = DeadLetterQueue(sim, blobs.create_container("dlq"))
        self._runs = itertools.count()

    # -- the sixteen sites ---------------------------------------------------

    def request(self, server, tenant, path="/v1/ping", body=None):
        """One request on the wire, run to its response."""
        signal = self.network.request(
            server.address, HttpRequest("POST" if body else "GET", path,
                                        body=body, headers=header(tenant)))
        self.sim.run(until=self.sim.now + 5.0)
        return signal.value

    def call(self, client, tenant, wait=1.0):
        """One resilient call against the wedged target."""
        signal = client.call(TARGET, HttpRequest("GET", "/v1/ping",
                                                 headers=header(tenant)))
        self.sim.run(until=self.sim.now + wait)
        return signal.value

    def enqueue(self, tenant):
        assert not self.dispatcher.enqueue(
            "svc", "sweep", PriorityClass.BATCH, item_id="sweep-1",
            **named(tenant))

    def location_budget(self, tenant):
        assert not self.ledger.admit("private", 4, **named(tenant))

    def tenant_quota(self, tenant):
        assert not self.ledger.admit("public", 4, **named(tenant))

    def rate_limited(self, tenant):
        return self.request(self.metered, tenant)

    def rest_overloaded(self, tenant):
        return self.request(self.full_rest, tenant)

    def soap_overloaded(self, tenant):
        return self.request(self.full_soap, tenant, path="/soap/begin",
                            body={"op": "begin"})

    def region_degraded(self, tenant):
        return self.guard(HttpRequest("GET", "/v1/ping",
                                      headers=header(tenant)))

    def submit_session(self, tenant):
        session = _StubSession(tenant)
        session.region = None
        assert self.georouter.submit_session(session, "portal",
                                             origin="eu") is None

    def replace(self, tenant):
        assert self.georouter.replace([_StubSession(tenant)]) == []

    def no_leader(self, tenant):
        assert not self.geo_ledger.handle("eu").admit("private", 2,
                                                      **named(tenant))

    def ledger_fenced(self, tenant):
        assert not self.geo_ledger.admit_as(
            "us", 7, qualify("eu", "private"), 2, **named(tenant))

    def circuit_open(self, tenant):
        return self.call(self.tripped, tenant)

    def bulkhead_full(self, tenant):
        return self.call(self.crowded, tenant)

    def admission_timeout(self, tenant):
        return self.call(self.queueing, tenant, wait=11.0)

    def journal_fenced(self, tenant):
        run = f"run-{next(self._runs)}"
        mine = self.journals.create(run)
        mine.acquire("exec-a", ttl=60.0)
        self.journals.open(run).append(j.ADOPTED, owner="exec-b")
        with pytest.raises(j.Fenced):
            mine.append(j.CHECKPOINT, node_id="s1")

    def poison(self, tenant):
        self.dlq.park(Event("obs.eden", next(self._runs), self.sim.now,
                            "observation"), "nan observation", 3)


#: site -> (driver, cause, the who / where its event must carry, whether
#: the site is handed a principal at all)
SITES = {
    "Dispatcher.enqueue": (World.enqueue, Cause.QUEUE_FULL,
                           {"service", "shard", "priority", "item"}, True),
    "CapacityLedger.admit/location": (
        World.location_budget, Cause.LOCATION_BUDGET,
        {"location", "vcpus", "budget", "committed"}, True),
    "CapacityLedger.admit/tenant": (
        World.tenant_quota, Cause.TENANT_QUOTA,
        {"location", "vcpus", "budget", "committed"}, True),
    "RestServer/429": (World.rate_limited, Cause.RATE_LIMITED,
                       {"service", "instance", "retry_after"}, True),
    "RestServer/503": (World.rest_overloaded, Cause.SERVER_OVERLOADED,
                       {"service", "instance"}, True),
    "SoapServer/503": (World.soap_overloaded, Cause.SERVER_OVERLOADED,
                       {"service", "instance"}, True),
    "RegionGuard": (World.region_degraded, Cause.REGION_DEGRADED,
                    {"region", "health", "path", "retry_after"}, True),
    "GeoRouter.submit_session": (World.submit_session, Cause.NO_REGION,
                                 {"service", "region", "session"}, True),
    "GeoRouter.replace": (World.replace, Cause.NO_REGION,
                          {"service", "region", "session"}, True),
    "GeoLedger.admit": (World.no_leader, Cause.NO_LEADER,
                        {"region", "location", "vcpus"}, True),
    "GeoLedger.admit_as": (World.ledger_fenced, Cause.FENCED,
                           {"region", "term", "current_term"}, True),
    "ResilientClient/breaker": (World.circuit_open, Cause.CIRCUIT_OPEN,
                                {"service", "target", "path"}, True),
    "ResilientClient/full": (World.bulkhead_full, Cause.BULKHEAD_FULL,
                             {"service", "target", "path"}, True),
    "ResilientClient/timeout": (
        World.admission_timeout, Cause.ADMISSION_TIMEOUT,
        {"service", "target", "path", "detail"}, True),
    "RunJournal.sync": (World.journal_fenced, Cause.FENCED,
                        {"run", "owner", "epoch"}, False),
    "DeadLetterQueue.park": (World.poison, Cause.POISON,
                             {"stream", "seq", "event_kind", "error",
                              "attempts"}, False),
}


# -- (a) one row per site ------------------------------------------------------


def test_the_table_covers_sixteen_sites_and_every_cause():
    assert len(SITES) == 16
    assert {cause for _, cause, _, _ in SITES.values()} == set(Cause)


@pytest.mark.parametrize("tenant", ["org-a", None], ids=["named", "unnamed"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_site_refuses_once_through_the_one_call(site, tenant):
    drive, cause, where, attributed = SITES[site]
    world = World()
    drive(world, tenant)
    log = obs_of(world.sim).events
    (event,) = log.events("refused")
    assert Cause(event.fields["cause"]) is cause
    principal = tenant if attributed and tenant else DEFAULT_TENANT
    assert event.fields["tenant"] == principal
    assert where <= set(event.fields)
    assert None not in event.fields.values()
    # one increment, on the child this refusal names
    labels = {"cause": cause.value, "tenant": principal}
    if "region" in event.fields:
        labels["region"] = event.fields["region"]
    assert refused(world.sim, **labels) == 1 == refused(world.sim)
    # and the site said it no other way
    assert not OLD_KINDS & set(log.counts())
    assert log.dropped == 0


def test_the_event_carries_what_each_site_holds():
    world = World()
    world.enqueue("org-a")
    world.no_leader("org-b")
    world.replace("org-a")
    world.journal_fenced(None)
    shed, stalled, dropped, fenced = [
        e.fields for e in obs_of(world.sim).events.events("refused")]
    assert (shed["service"], shed["shard"], shed["priority"]) \
        == ("svc", 3, "batch")
    assert (stalled["region"], stalled["location"]) == ("eu", "eu/private")
    assert (dropped["region"], dropped["service"]) == ("eu", "portal")
    assert (fenced["owner"], fenced["epoch"]) == ("exec-a", 1)


def test_refuse_annotates_the_callers_span_and_drops_unknowns():
    sim = Simulator()
    span = obs_of(sim).tracer.start_span("caller")
    event = refuse(sim, Cause.NO_REGION, span=span, region=None,
                   session="s-1")
    assert event.fields == {"cause": "no_region",
                            "tenant": DEFAULT_TENANT, "session": "s-1"}
    assert span.annotations == [{"t": 0.0, "message": "refused",
                                 **event.fields}]
    # no region known: the counter child carries none
    assert obs_of(sim).metrics.snapshot()[
        "refused{cause=no_region,tenant=default}"] == 1


# -- the two defects -----------------------------------------------------------


def test_replace_records_the_session_it_could_not_place():
    """Fails at the parent: the failover re-placement path dropped the
    session with an ``int += 1`` and left no event at all."""
    sim = Simulator()
    topology = RegionTopology(sim, ["eu", "us"])
    for region in topology.regions():
        topology.mark(region, RegionStatus.DOWN)
    router = GeoRouter(sim, topology, {r: _StubRouter()
                                       for r in topology.regions()})
    session = _StubSession("org-a")
    assert router.replace([session]) == []
    (event,) = obs_of(sim).events.events("refused")
    assert event.fields["tenant"] == "org-a"
    assert event.fields["region"] == "eu"
    assert event.fields["session"] == session.session_id
    assert refused(sim, cause="no_region") == 1


def test_a_request_that_waited_out_the_cap_is_not_told_bulkhead_full():
    """One slot, one waiter; the slot is held past the cap.  The waiter
    is an admission timeout, the arrival that found the queue full is
    the other shed, and the ``shed`` count is two, as it always was."""
    world = World()
    client = world.queueing
    request = HttpRequest("GET", "/v1/ping")
    waiter = client.call(TARGET, request)
    arrival = client.call(TARGET, request)
    world.sim.run(until=world.sim.now + 11.0)
    assert (waiter.value.status, arrival.value.status) == (429, 429)
    assert waiter.value.body["cause"] == "admission_timeout"
    assert "bulkhead full" not in waiter.value.body["detail"]
    assert "10.0s" in waiter.value.body["detail"]
    assert arrival.value.body["cause"] == "bulkhead_full"
    for response in (waiter.value, arrival.value):
        assert response.body["title"] == "admission shed"
        assert response.body["type"] == "evop:problem:admission-shed"
        assert response.body["retryable"] is True
    assert world.resilience.snapshot()["shed"] == 2


# -- (b) the wire held ---------------------------------------------------------

#: driver -> cause, then what the response read before refusals were one
#: call, field for field (the admission timeout's detail is the one
#: intended change: it used to repeat the other shed's ``bulkhead full
#: for replica.evop``)
PARENT_WIRE = {
    "rate_limited": ("rate_limited", 429, {
        "type": "evop:problem:rate-limited", "title": "rate limit exceeded",
        "status": 429, "retryable": True, "tenant": "org-a",
        "detail": "tenant 'org-a' exhausted its request budget; "
                  "retry after 1000000000s"},
        {"X-RateLimit-Limit": "1", "X-RateLimit-Remaining": "0",
         "X-RateLimit-Reset": "1e+09", "Retry-After": "1e+09"}),
    "rest_overloaded": ("server_overloaded", 503, {
        "type": "evop:problem:server-overloaded",
        "title": "server overloaded", "status": 503, "retryable": True,
        "detail": "accept queue full"}, {}),
    "soap_overloaded": ("server_overloaded", 503, {
        "type": "evop:problem:server-overloaded",
        "title": "server overloaded", "status": 503, "retryable": True,
        "detail": "accept queue full"}, {}),
    "region_degraded": ("region_degraded", 503, {
        "type": "evop:problem:region-degraded", "title": "region degraded",
        "status": 503, "retryable": True, "region": "eu", "tenant": "org-a",
        "detail": "region eu is down and no healthy region can absorb "
                  "spillover; retry after 15s"}, {"Retry-After": "15"}),
    "bulkhead_full": ("bulkhead_full", 429, {
        "type": "evop:problem:admission-shed", "title": "admission shed",
        "status": 429, "retryable": True,
        "detail": "bulkhead full for replica.evop"}, {}),
    "admission_timeout": ("admission_timeout", 429, {
        "type": "evop:problem:admission-shed", "title": "admission shed",
        "status": 429, "retryable": True,
        "detail": "no bulkhead slot for replica.evop within 10.0s"}, {}),
    "circuit_open": ("circuit_open", 503, {
        "type": "evop:problem:circuit-open", "title": "circuit open",
        "status": 503, "retryable": True,
        "detail": "circuit open for portal@replica.evop"}, {}),
}


@pytest.mark.parametrize("site", sorted(PARENT_WIRE))
def test_the_wire_form_gained_a_cause_and_lost_nothing(site):
    cause, status, body, headers = PARENT_WIRE[site]
    response = getattr(World(), site)("org-a")
    assert response.status == status
    assert response.headers == headers
    assert {key: response.body[key] for key in body} == body
    assert response.body["cause"] == cause
    assert response.body["tenant"] == "org-a"


# -- (c) counter == events == oracle, under any program ------------------------

#: the kept hand tallies, each against the causes it sums
KEPT = {
    "shed_counts()": (
        lambda w: sum(w.dispatcher.shed_counts().values()), {"queue_full"}),
    "refusals": (lambda w: w.ledger.refusals,
                 {"location_budget", "tenant_quota"}),
    "no_leader_refusals": (lambda w: w.geo_ledger.no_leader_refusals,
                           {"no_leader"}),
    "throttled": (lambda w: w.limiter.throttled, {"rate_limited"}),
    "shed": (lambda w: w.resilience.snapshot().get("shed", 0),
             {"bulkhead_full", "admission_timeout"}),
    "breaker.fastfail": (
        lambda w: w.resilience.snapshot().get("breaker.fastfail", 0),
        {"circuit_open"}),
}


@given(st.lists(st.tuples(st.sampled_from(sorted(SITES)),
                          st.sampled_from(["org-a", "org-b", None])),
                max_size=24))
@settings(max_examples=30, deadline=None)
def test_counter_events_and_oracle_agree(program):
    world = World()
    oracle = {}
    for site, tenant in program:
        drive, cause, _, attributed = SITES[site]
        drive(world, tenant)
        # the way each site's own tally used to go: ``x[tenant] += 1``
        key = (cause.value, tenant if attributed and tenant
               else DEFAULT_TENANT)
        oracle[key] = oracle.get(key, 0) + 1
    events = {}
    for event in obs_of(world.sim).events.events("refused"):
        key = (event.fields["cause"], event.fields["tenant"])
        events[key] = events.get(key, 0) + 1
    assert events == oracle
    for (cause, tenant), count in oracle.items():
        assert refused(world.sim, cause=cause, tenant=tenant) == count
    total = sum(oracle.values())
    assert refused(world.sim) == total
    assert obs_of(world.sim).metrics.snapshot().get("refused", 0) == total
    for name, (read, causes) in KEPT.items():
        assert read(world) == sum(
            n for (cause, _), n in oracle.items() if cause in causes), name
    assert obs_of(world.sim).events.dropped == 0


# -- (d) why was this tenant refused, over the wire ----------------------------


def test_why_a_tenant_was_refused_is_one_query():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2,
                           telemetry_interval=15.0)).bootstrap()
    evop.enable_tenancy(specs=[TenantSpec("org-a", rate=1.0, burst=1.0)])
    name = evop.expose_observability()
    evop.run_for(600.0)
    address = next(s for s in evop.sched.services()
                   if s.name == name).serving()[0].address

    def why(tenant):
        signal = evop.network.request(address, HttpRequest(
            "GET", "/v1/observability/metrics/refused",
            query={"tenant": tenant}))
        evop.run_for(5.0)
        return signal.value

    burst = [evop.network.request(address, HttpRequest(
        "GET", "/v1/observability/slo", headers=header("org-a")))
        for _ in range(2)]
    evop.run_for(30.0)              # past the next scrape
    assert sorted(s.value.status for s in burst) == [200, 429]
    mine = why("org-a")
    assert mine.status == 200
    assert [(s["labels"], s["points"][-1][1]) for s in mine.body["series"]] \
        == [({"service": "obs", "cause": "rate_limited",
              "tenant": "org-a"}, 1.0)]
    nobody = why(DEFAULT_TENANT)
    assert nobody.status == 404
    assert nobody.body["title"] == "no such metric"
