"""The capacity book equals the estate, whatever the schedule.

A Hypothesis state machine drives one two-shard cell, whose private pool
is small enough that the autoscaler bursts to the public cloud, through
session arrivals (three classes, two tenants) and departures, autoscale
ticks, operator drains and replica crashes.  After every settle — long
enough for a boot and a health verdict — the shared ledger holds exactly
the vCPUs of the live nodes at each location, and the router is
cloudbursting exactly when a public node is live.

A second machine drives a two- or three-region :class:`GeoEstate`
through arrivals, departures, whole-region kills and heals.  After every
settle the estate's one book holds each reachable region's live private
vCPUs, nothing was committed past a pool, and every election took a
higher term than the last.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.broker import PrivateFirstPolicy, SessionTable
from repro.cloud import FaultInjector, ImageKind, ImageStore, MEDIUM
from repro.core.cell import Cell
from repro.geo import GeoEstate, RegionStatus, qualify
from repro.sched import CapacityLedger, PriorityClass
from repro.services import Network, RestApi
from repro.sim import RandomStreams, Simulator

AUTOSCALE_INTERVAL = 10.0
#: a public boot plus a few health windows, with room to spare
SETTLE = 300.0


class CapacityBook(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        streams = RandomStreams(seed=7)
        network = Network(self.sim, streams=streams)
        self.sessions = SessionTable(self.sim)
        self.ledger = CapacityLedger(self.sim)
        self.cell = Cell(self.sim, streams, network, self.sessions,
                         self.ledger, region="test",
                         private_vcpus=3 * MEDIUM.vcpus, shards=2,
                         health_interval=5.0, health_window=3,
                         autoscale_interval=AUTOSCALE_INTERVAL,
                         policy=PrivateFirstPolicy())
        api = RestApi("svc")
        api.get("/ping", lambda request, params: {"pong": True})
        image = ImageStore().create("portal", ImageKind.GENERIC, size_gb=1.0)
        self.cell.publish("svc", api, image, sessions_per_replica=2,
                          min_replicas=2, max_replicas=8)
        self.injector = FaultInjector(self.sim, self.cell.providers,
                                      streams=streams)
        self.open_sessions = []
        self.settled = False

    def serving(self):
        return [replica for pool in self.cell.router.services()
                for replica in pool.serving()]

    @rule(count=st.integers(min_value=1, max_value=4),
          priority=st.sampled_from(list(PriorityClass)),
          tenant=st.sampled_from(["org-a", "org-b"]))
    def place(self, count, priority, tenant):
        for _ in range(count):
            session = self.sessions.create("user", tenant=tenant)
            self.cell.router.submit_session(session, "svc",
                                            priority=priority)
            self.open_sessions.append(session)
        self.settled = False

    @precondition(lambda self: self.open_sessions)
    @rule(data=st.data())
    def end(self, data):
        session = data.draw(st.sampled_from(self.open_sessions))
        self.open_sessions.remove(session)
        session.end()
        self.settled = False

    @rule()
    def autoscale_tick(self):
        self.sim.run(until=self.sim.now + AUTOSCALE_INTERVAL + 1.0)
        self.settled = False

    @precondition(lambda self: self.serving())
    @rule(data=st.data())
    def drain(self, data):
        self.cell.router.drain(data.draw(st.sampled_from(self.serving())))
        self.settled = False

    @precondition(lambda self: self.cell.multicloud.list_nodes())
    @rule(data=st.data())
    def crash(self, data):
        self.injector.crash(data.draw(
            st.sampled_from(self.cell.multicloud.list_nodes())))
        self.settled = False

    @rule()
    def settle(self):
        self.sim.run(until=self.sim.now + SETTLE)
        self.settled = True

    @precondition(lambda self: self.settled)
    @invariant()
    def book_equals_estate(self):
        multicloud = self.cell.multicloud
        for location in ("private", "public"):
            assert self.ledger.committed(location) == sum(
                node.flavor.vcpus for node in multicloud.list_nodes(location))
        assert self.cell.router.cloudbursting == bool(
            multicloud.list_nodes("public"))


CapacityBook.TestCase.settings = settings(
    max_examples=50, stateful_step_count=12, deadline=None)
TestCapacityBook = CapacityBook.TestCase


#: a region-loss verdict, an election and the evacuees' boots, with room
#: to spare
GEO_SETTLE = 120.0


class GeoBook(RuleBasedStateMachine):
    @initialize(regions=st.integers(min_value=2, max_value=3),
                users=st.integers(min_value=0, max_value=8))
    def build(self, regions, users):
        self.estate = GeoEstate(regions=regions, private_vcpus=8,
                                election_ttl=8.0,
                                failover_interval=2.0).warm(until=100.0)
        # every region starts with ``users`` sessions of its own, as in
        # region_failover
        self.open_sessions = [
            self.estate.submit("user", origin=region)
            for region in self.estate.regions() for _ in range(users)]
        self.killed = []
        self.settled = False

    @rule(count=st.integers(min_value=1, max_value=4), data=st.data())
    def submit(self, count, data):
        origin = data.draw(st.sampled_from(self.estate.regions()))
        for _ in range(count):
            self.open_sessions.append(
                self.estate.submit("user", origin=origin))
        self.settled = False

    @precondition(lambda self: self.open_sessions)
    @rule(data=st.data())
    def end(self, data):
        session = data.draw(st.sampled_from(self.open_sessions))
        self.open_sessions.remove(session)
        session.end()
        self.settled = False

    @rule(half_seconds=st.integers(min_value=0, max_value=7),
          data=st.data())
    def kill(self, half_seconds, data):
        # the wait lands the kill anywhere in a failover check period,
        # so the region's DOWN verdict may come before or after the
        # releases of its dead replicas
        self.estate.sim.run(until=self.estate.sim.now + half_seconds / 2.0)
        region = data.draw(st.sampled_from(self.estate.regions()))
        self.estate.injector.region_outage(region)
        if region not in self.killed:
            self.killed.append(region)
        self.settled = False

    @precondition(lambda self: self.killed)
    @rule(data=st.data())
    def heal(self, data):
        region = data.draw(st.sampled_from(self.killed))
        self.killed.remove(region)
        self.estate.injector.heal_region(region)
        self.settled = False

    @rule()
    def settle(self):
        self.estate.sim.run(until=self.estate.sim.now + GEO_SETTLE)
        self.settled = True

    @precondition(lambda self: self.settled)
    @invariant()
    def one_book_equals_the_estate(self):
        estate = self.estate
        for region, cell in estate.cells.items():
            if estate.topology.status(region) is RegionStatus.DOWN:
                continue
            assert estate.geo_ledger.committed(qualify(region, "private")) \
                == sum(node.flavor.vcpus
                       for node in cell.multicloud.list_nodes("private"))
        assert estate.geo_ledger.overcommits == 0
        terms = [term for _, _, term in estate.election.elections]
        assert all(a < b for a, b in zip(terms, terms[1:]))
        leader = estate.election.leader()
        assert leader is None or leader == estate.election.elections[-1][1]


GeoBook.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)
TestGeoBook = GeoBook.TestCase
