"""Geo-distributed estate: replication, election, ledger, failover."""

import hashlib
import itertools

import pytest

from repro.cloud import BlobStore, MultiCloud
from repro.cloud.errors import CloudError
from repro.durable import JournalStore
from repro.geo import (
    GeoEstate,
    GeoLedger,
    GeoRouter,
    LeaderElection,
    RegionGuard,
    RegionStatus,
    RegionTopology,
    Replicator,
    VersionVector,
    qualify,
)
from repro.hydrology.timeseries import TimeSeries
from repro.obs.hub import obs_of
from repro.obs.refusal import refused
from repro.resilience.policy import RetryPolicy
from repro.services.transport import HttpRequest
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT


@pytest.fixture
def sim():
    return Simulator()


# -- topology ----------------------------------------------------------------


def test_topology_ring_and_status(sim):
    topo = RegionTopology(sim, ["a", "b", "c"])
    assert topo.nearest("b") == ["b", "c", "a"]
    assert topo.nearest(None) == ["a", "b", "c"]
    topo.mark("a", RegionStatus.DOWN)
    assert topo.is_down("a")
    assert topo.available() == ["b", "c"]
    assert topo.nearest_available("a") == "b"
    assert len(topo.transitions) == 1


def test_topology_rejects_duplicates(sim):
    with pytest.raises(ValueError):
        RegionTopology(sim, ["a", "a"])
    with pytest.raises(ValueError):
        RegionTopology(sim, [])


# -- multicloud regions (satellite: duplicate registration) ------------------


def test_multicloud_duplicate_blobstore_raises(sim):
    multi = MultiCloud()
    store = BlobStore(sim, name="s1")
    multi.register_blobstore("private", store)
    with pytest.raises(ValueError):
        multi.register_blobstore("private", BlobStore(sim, name="s2"))


# -- version vectors ---------------------------------------------------------


def test_version_vector_algebra():
    a = VersionVector.of({}).increment("eu").increment("eu")
    b = VersionVector.of({}).increment("us")
    assert a.get("eu") == 2 and a.get("us") == 0
    assert a.concurrent(b) and b.concurrent(a)
    merged = a.merge(b)
    assert merged.descends(a) and merged.descends(b)
    assert merged.increment("eu").descends(merged)
    assert not a.descends(merged)


# -- replication -------------------------------------------------------------


def _two_sites(sim, interval=5.0):
    topo = RegionTopology(sim, ["eu", "us"])
    stores = {r: BlobStore(sim, name=f"{r}-store") for r in topo.regions()}
    repl = Replicator(sim, topo, interval=interval)
    for region, store in stores.items():
        repl.add_site(region, store)
    repl.replicate("data")
    for store in stores.values():
        store.create_container("data")
    return topo, stores, repl


def test_replicator_ships_within_one_interval(sim):
    _, stores, repl = _two_sites(sim, interval=5.0)
    repl.start()
    stores["eu"].container("data").put("k", {"v": 1})
    sim.run(until=20.0)
    assert stores["us"].container("data").get("k").payload == {"v": 1}
    # RPO: lag never exceeds one replication interval
    assert 0 < repl.max_lag() <= 5.0


def test_replicator_converges_concurrent_writes(sim):
    _, stores, repl = _two_sites(sim)
    repl.start()
    sim.run(until=6.0)
    stores["eu"].container("data").put("k", {"site": "eu"})
    stores["us"].container("data").put("k", {"site": "us"})
    sim.run(until=30.0)
    eu = stores["eu"].container("data").get("k").payload
    us = stores["us"].container("data").get("k").payload
    assert eu == us
    assert repl.conflicts >= 1


def test_replicator_tracks_the_etags_put_used_to_stamp(sim):
    _, stores, repl = _two_sites(sim)
    repl.start()
    stores["eu"].container("data").put("k", {"v": 1})
    sim.run(until=12.0)
    stamp = hashlib.sha256(repr({"v": 1}).encode()).hexdigest()[:16]
    assert repl._seen == {("eu", "data", "k"): stamp,
                          ("us", "data", "k"): stamp}
    # converged: equal etags on both sides, so later sweeps ship nothing
    sim.run(until=30.0)
    assert len(repl.shipped) == 1
    stores["us"].container("data").put("k", {"v": 2})
    sim.run(until=45.0)
    assert stores["eu"].container("data").get("k").payload == {"v": 2}
    assert len(repl.shipped) == 2 and repl.conflicts == 0


def test_replicator_skips_faulted_site_then_catches_up(sim):
    _, stores, repl = _two_sites(sim, interval=2.0)
    repl.start()
    stores["us"].set_fault("unavailable")
    stores["eu"].container("data").put("k", {"v": 1})
    sim.run(until=10.0)
    stores["us"].clear_fault()
    sim.run(until=20.0)
    assert stores["us"].container("data").get("k").payload == {"v": 1}


# -- leader election ---------------------------------------------------------


def _election(sim, regions=("eu", "us", "ap"), ttl=6.0):
    topo = RegionTopology(sim, list(regions))
    stores = {r: BlobStore(sim, name=f"{r}-store") for r in regions}
    journals = {r: JournalStore(sim, stores[r], name="geo-election")
                for r in regions}
    election = LeaderElection(sim, topo, journals, ttl=ttl,
                              check_interval=1.0)
    return topo, stores, election


def test_election_elects_nearest_and_renews(sim):
    topo, _, election = _election(sim)
    election.start()
    sim.run(until=30.0)
    assert election.leader() == "eu"
    assert election.term == 1
    assert len(election.elections) == 1      # renewed, not re-elected


def test_reelection_within_bound_and_term_grows(sim):
    topo, _, election = _election(sim, ttl=6.0)
    election.start()
    sim.run(until=10.0)
    topo.mark("eu", RegionStatus.DOWN)
    down_at = sim.now
    sim.run(until=down_at + election.reelection_bound + 1.0)
    assert election.leader() == "us"
    assert election.term == 2
    _, elected_at = (election.elections[-1][1],
                     election.elections[-1][0])
    assert elected_at - down_at <= election.reelection_bound


# -- geo ledger (satellite: leader hand-off, fencing, no double commit) ------


def _geo_ledger(sim, capacity=8, regions=("eu", "us", "ap")):
    topo, stores, election = _election(sim, regions)
    election.start()
    cap = {qualify(r, "private"): capacity for r in topo.regions()}
    geo = GeoLedger(sim, election, capacity=cap)
    sim.run(until=5.0)
    return topo, election, geo


def test_ledger_leader_handoff_no_double_commit(sim):
    topo, election, geo = _geo_ledger(sim, capacity=8)
    handle = geo.handle("eu")
    assert handle.admit("private", 4)
    handle.commit("private", 4)
    # leader region dies mid-admission: until re-election, admissions
    # are refused — never guessed
    topo.mark("eu", RegionStatus.DOWN)
    assert geo.admit(qualify("eu", "private"), 4) is False
    assert geo.no_leader_refusals == 1
    sim.run(until=sim.now + election.reelection_bound + 1.0)
    assert election.leader() == "us"
    # the new leader decides from the same book: the remaining
    # headroom is 4, so 8 more would double-commit and must be refused
    assert geo.admit(qualify("eu", "private"), 8) is False
    assert geo.admit(qualify("eu", "private"), 4) is True
    geo.commit(qualify("eu", "private"), 4)
    assert geo.committed(qualify("eu", "private")) == 8
    assert geo.overcommits == 0


def test_ledger_fences_stale_leader_grant(sim):
    topo, election, geo = _geo_ledger(sim)
    stale_term = election.term
    topo.mark("eu", RegionStatus.DOWN)
    sim.run(until=sim.now + election.reelection_bound + 1.0)
    assert election.term > stale_term
    # the deposed leader's in-flight decision arrives late: fenced
    assert geo.admit_as("eu", stale_term, qualify("us", "private"), 1) is False
    assert refused(sim, cause="fenced", region="eu") == 1
    leader = election.leader()
    assert geo.admit_as(leader, election.term,
                        qualify("us", "private"), 1) is True


def test_a_healed_leader_decides_from_the_whole_book(sim):
    topo, election, geo = _geo_ledger(sim, capacity=8, regions=("eu", "us"))
    us = qualify("us", "private")
    topo.mark("eu", RegionStatus.DOWN)
    sim.run(until=sim.now + election.reelection_bound + 1.0)
    assert election.leader() == "us"
    assert geo.admit(us, 8)
    geo.commit(us, 8)
    # eu heals (us renews its lease onto eu's journal), then us is lost
    # and eu leads again: us's budget is already spent
    topo.mark("eu", RegionStatus.HEALTHY)
    sim.run(until=sim.now + election.ttl)
    topo.mark("us", RegionStatus.DOWN)
    sim.run(until=sim.now + election.reelection_bound + 1.0)
    assert [(leader, term) for _, leader, term in election.elections] == [
        ("eu", 1), ("us", 2), ("eu", 3)]
    assert geo.committed(us) == 8
    assert geo.admit(us, 8) is False
    assert refused(sim, cause="location_budget") == 1
    assert geo.refusals == 1 and geo.overcommits == 0


def test_a_commit_past_the_pool_is_an_overcommit():
    estate = GeoEstate(regions=2, private_vcpus=4)
    handle = estate.geo_ledger.handle("us-east")
    handle.commit("private", 4)
    assert estate.geo_ledger.overcommits == 0
    handle.commit("private", 2)
    assert estate.geo_ledger.overcommits == 1
    (event,) = obs_of(estate.sim).events.events("geo.ledger.overcommit")
    assert (event.fields["location"], event.fields["committed"],
            event.fields["budget"]) == ("us-east/private", 6, 4)


# -- geo routing -------------------------------------------------------------


class _StubRouter:
    def __init__(self):
        self.submitted = []

    def submit_session(self, session, service, priority=None):
        self.submitted.append(session)
        return 0


class _StubSession:
    _ids = iter(range(10**6))

    def __init__(self):
        self.session_id = f"s-{next(self._ids)}"
        self.priority = None
        self.tenant = DEFAULT_TENANT


def test_georouter_sticky_nearest_and_spillover(sim):
    topo = RegionTopology(sim, ["eu", "us", "ap"])
    routers = {r: _StubRouter() for r in topo.regions()}
    geo = GeoRouter(sim, topo, routers)
    s1 = _StubSession()
    assert geo.submit_session(s1, "portal", origin="us") == "us"
    assert s1.region == "us"
    # sticky: resubmission goes home even from another origin
    assert geo.submit_session(s1, "portal", origin="ap") == "us"
    # a DEGRADED region spills to the next on the ring
    topo.mark("us", RegionStatus.DEGRADED)
    s2 = _StubSession()
    assert geo.submit_session(s2, "portal", origin="us") == "ap"
    assert geo.spillovers == 1
    assert routers["ap"].submitted == [s2]
    # every region impaired: nearest not-DOWN still serves
    for region in topo.regions():
        topo.mark(region, RegionStatus.DEGRADED)
    s3 = _StubSession()
    assert geo.submit_session(s3, "portal", origin="eu") == "eu"
    # all DOWN: refused
    for region in topo.regions():
        topo.mark(region, RegionStatus.DOWN)
    assert geo.submit_session(_StubSession(), "portal", origin="eu") is None
    assert refused(sim, cause="no_region", region="eu") == 1


def test_region_guard_sheds_v1_with_problem_503(sim):
    topo = RegionTopology(sim, ["eu", "us"])
    routers = {r: _StubRouter() for r in topo.regions()}
    geo = GeoRouter(sim, topo, routers)
    guard = RegionGuard(geo, "eu")
    request = HttpRequest("GET", "/v1/ping")
    # healthy: silent
    assert guard(request) is None
    topo.mark("eu", RegionStatus.DEGRADED)
    # degraded but a healthy sibling exists: still silent
    assert guard(request) is None
    topo.mark("us", RegionStatus.DOWN)
    denial = guard(request)
    assert denial.status == 503
    assert denial.headers["Retry-After"] == "15"
    assert denial.body["retryable"] is True
    assert denial.body["region"] == "eu"
    # RFC-7807 body drives the client retry classification
    assert RetryPolicy().should_retry(denial, safe=False) is True


# -- region chaos fault (satellite) ------------------------------------------


def test_region_outage_and_heal(sim):
    estate = GeoEstate(regions=2, private_vcpus=16).warm(until=80.0)
    region = estate.regions()[0]
    cell = estate.cells[region]
    serving = sum(len(p.serving_instances()) for p in cell.providers)
    assert serving >= 1
    estate.injector.region_outage(region)
    assert cell.store.faulted
    assert all(len(p.serving_instances()) == 0 for p in cell.providers)
    with pytest.raises(CloudError):
        cell.private.launch(estate.image,
                            next(iter(cell.private.flavors.values()))
                            if hasattr(cell.private, "flavors") else None)
    estate.injector.heal_region(region)
    assert not cell.store.faulted
    kinds = [f.kind for f in estate.injector.injected]
    assert "region_outage" in kinds and "heal_region" in kinds


# -- end-to-end failover -----------------------------------------------------


def test_two_region_failover_replaces_sessions(sim):
    estate = GeoEstate(regions=2, replication_interval=4.0).warm(until=100.0)
    regions = estate.regions()
    sessions = [estate.submit(f"u{i}", origin=regions[i % 2])
                for i in range(4)]
    estate.sim.run(until=140.0)
    assert all(s.state.value == "active" for s in sessions)
    victim = regions[0]
    survivor = regions[1]
    estate.cells[victim].warehouse.put_series(
        "obs", TimeSeries(0.0, 1.0, [1.0, 2.0]))
    estate.sim.run(until=150.0)
    estate.injector.region_outage(victim)
    estate.sim.run(until=250.0)
    report = estate.failover.reports[-1]
    assert report.region == victim
    assert report.adopter == survivor
    assert report.sessions_replaced == report.sessions_detached
    assert report.resettled_at is not None
    # every session serves from the survivor now
    assert all(s.state.value == "active" and s.region == survivor
               for s in sessions)
    # replicated warehouse data readable in the survivor (bounded RPO)
    series = estate.cells[survivor].warehouse.get_series("obs")
    assert series.values == [1.0, 2.0]
    assert estate.geo_ledger.overcommits == 0


def test_losing_the_adopter_too_waits_for_it_to_heal():
    estate = GeoEstate(regions=3, failover_interval=2.0).warm(until=100.0)
    estate.injector.region_outage("eu-west")
    estate.sim.run(until=110.0)
    (report,) = estate.failover.reports
    assert report.adopter == "us-east"
    # a second loss: the adopter's journals are unreadable, so the
    # orphan sweep skips it instead of failing the coordinator
    estate.injector.region_outage("us-east")
    estate.sim.run(until=200.0)
    assert [estate.topology.status(r) for r in estate.regions()] == [
        RegionStatus.DOWN, RegionStatus.DOWN, RegionStatus.HEALTHY]
    estate.injector.heal_region("us-east")
    estate.sim.run(until=400.0)
    assert estate.topology.status("us-east") is RegionStatus.HEALTHY


def _private_vcpus(cell):
    return sum(node.flavor.vcpus
               for node in cell.multicloud.list_nodes("private"))


@pytest.mark.parametrize("offset", [0.5, 1.5, 2.5, 3.5])
def test_the_book_equals_the_estate_after_a_kill_and_a_heal(offset):
    # region_failover in small: users and churn in every region, the
    # leader region killed and healed; the kill lands at ``offset`` into
    # a failover check period, so the region's DOWN verdict comes before
    # the releases of its dead replicas on some offsets and after on
    # others
    estate = GeoEstate(regions=3, private_vcpus=48, election_ttl=8.0,
                       failover_interval=4.0).warm(until=150.0)
    sim, regions = estate.sim, estate.regions()
    for region in regions:
        for i in range(8):
            estate.submit(f"{region}-user-{i}", origin=region)

    def churn():
        live = []
        for k in itertools.count():
            live.append(estate.submit(f"churn-{k}", origin=regions[k % 3]))
            if len(live) > 6:
                live.pop(0).end()
            yield 10.0

    sim.spawn(churn(), name="churn")
    victim = estate.election.leader()
    estate.injector.region_outage_at(200.0 + offset, victim, duration=200.0)
    sim.run(until=800.0)
    assert [t.status for t in estate.topology.transitions] == [
        RegionStatus.DOWN, RegionStatus.HEALTHY]
    assert estate.geo_ledger.snapshot() == {
        qualify(region, "private"): _private_vcpus(cell)
        for region, cell in estate.cells.items()}
    assert estate.geo_ledger.overcommits == 0


def _one_region_run(regions, users=20):
    estate = GeoEstate(regions=regions).warm(until=100.0)
    stalled = estate.geo_ledger.no_leader_refusals
    sessions = [estate.submit(f"u{i}") for i in range(users)]
    estate.sim.run(until=400.0)
    # serving adds no stall to the ones manage() met before start()
    assert estate.geo_ledger.no_leader_refusals == stalled
    return estate, [(s.state.value, s.region, s.instance.instance_id,
                     len(s.migrations)) for s in sessions]


def test_estate_single_region_runs_clean():
    estate, served = _one_region_run(1)
    # one region is the general build: it elects itself once, at term 1,
    # ships to nobody, and its book speaks qualified locations
    assert estate.election.elections == [(0.0, "eu-west", 1)]
    assert estate.replicator.sweeps > 0 and estate.replicator.shipped == []
    assert estate.failover.reports == []
    assert refused(estate.sim, cause="no_region") == 0
    assert estate.geo_router.spillovers == 0
    assert refused(estate.sim, cause="region_degraded") == 0
    assert estate.geo_ledger.overcommits == 0
    assert estate.geo_ledger.snapshot() == {"eu-west/private": 10}
    # the first replica takes everyone, then the autoscaler's four more
    # relieve it four sessions apiece
    relief = ["os-0002", "os-0001", "os-0004", "os-0003"]
    assert served == [
        ("active", "eu-west", relief[i % 4], 1) for i in range(16)
    ] + [("active", "eu-west", "os-0000", 0)] * 4
    # a count and a list of length one are the same estate
    assert _one_region_run(["eu-west"])[1] == served
