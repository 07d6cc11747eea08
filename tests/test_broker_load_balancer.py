"""Integration tests for the Load Balancer and Resource Broker."""

import pytest

from repro.broker import (
    PrivateFirstPolicy,
    PrivateOnlyPolicy,
    ResourceBroker,
    SessionTable,
)
from repro.cloud import FaultInjector, ImageStore, ImageKind, MEDIUM
from repro.core.cell import Cell
from repro.obs import obs_of
from repro.sched import CapacityLedger
from repro.services import Network, PushGateway, RestApi
from repro.sim import RandomStreams, Simulator


class Stack:
    """A small wired EVOp control plane for tests."""

    def __init__(self, private_vcpus=8, policy=None, sessions_per_replica=4,
                 autoscale_interval=10.0, max_replicas=16, min_replicas=1):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=42)
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        cell = Cell(self.sim, self.streams, self.network, self.sessions,
                    CapacityLedger(self.sim), region="test",
                    private_vcpus=private_vcpus, shards=1,
                    health_interval=5.0, health_window=3,
                    autoscale_interval=autoscale_interval,
                    policy=policy or PrivateFirstPolicy())
        self.private, self.public = cell.private, cell.public
        self.multi, self.monitor = cell.multicloud, cell.monitor
        self.lb, self.sched = cell.lbs[0], cell.router
        self.images = ImageStore()
        self.image = self.images.create("portal", ImageKind.GENERIC, size_gb=1.0)
        self.api = RestApi("svc")
        self.api.get("/ping", lambda req, p: {"pong": True})
        self.service = cell.service(
            "svc", self.api, self.image,
            sessions_per_replica=sessions_per_replica,
            min_replicas=min_replicas, max_replicas=max_replicas)
        self.injector = FaultInjector(self.sim, cell.providers)

    def make_rb(self):
        gateway_instance = self.private.launch(self.image, MEDIUM)
        self.sim.run(until=self.sim.now + 120.0)
        gateway = PushGateway(self.sim, gateway_instance, streams=self.streams)
        return ResourceBroker(self.sim, self.sched, self.sessions, gateway)


def test_manage_boots_min_replicas():
    stack = Stack()
    stack.lb.manage(stack.service)
    stack.sim.run(until=300.0)
    assert len(stack.service.serving()) == 1
    replica = stack.service.serving()[0]
    assert replica.address in stack.network._endpoints
    assert stack.lb.registry.first_address("svc") == replica.address


def test_place_session_assigns_least_loaded():
    stack = Stack(min_replicas=2)
    stack.lb.manage(stack.service, initial_replicas=2)
    stack.sim.run(until=300.0)
    a, b = stack.service.serving()
    s1 = stack.sessions.create("u1")
    stack.lb.place_session(s1, "svc")
    s2 = stack.sessions.create("u2")
    stack.lb.place_session(s2, "svc")
    assert {s1.instance, s2.instance} == {a, b} or \
        len({s1.instance, s2.instance}) in (1, 2)
    # both got an instance immediately
    assert s1.wait_time == 0.0 and s2.wait_time == 0.0


def test_session_waits_for_first_boot():
    stack = Stack()
    stack.lb.manage(stack.service, initial_replicas=0)
    session = stack.sessions.create("early-bird")
    stack.lb.place_session(session, "svc")
    assert session.state.value == "waiting"
    stack.sim.run(until=600.0)
    assert session.state.value == "active"
    assert session.wait_time > 0


def test_autoscaler_grows_pool_with_demand():
    stack = Stack(sessions_per_replica=2, autoscale_interval=10.0)
    stack.lb.manage(stack.service)
    stack.sim.run(until=120.0)
    for i in range(8):
        stack.lb.place_session(stack.sessions.create(f"u{i}"), "svc")
    stack.sim.run(until=600.0)
    # 8 sessions / 2 per replica = 4 replicas
    assert len(stack.service.serving()) == 4


def test_autoscaler_shrinks_when_sessions_end():
    stack = Stack(sessions_per_replica=2, autoscale_interval=10.0)
    stack.lb.manage(stack.service)
    stack.sim.run(until=120.0)
    sessions = [stack.sessions.create(f"u{i}") for i in range(8)]
    for s in sessions:
        stack.lb.place_session(s, "svc")
    stack.sim.run(until=600.0)
    assert len(stack.service.serving()) == 4
    for s in sessions:
        s.end()
    stack.sim.run(until=1200.0)
    assert len(stack.service.serving()) == stack.service.min_replicas


def test_cloudburst_on_private_saturation_and_reversal():
    # private fits 2 MEDIUM replicas; demand forces 4 -> burst to public
    stack = Stack(private_vcpus=4, sessions_per_replica=2)
    stack.lb.manage(stack.service)
    stack.sim.run(until=120.0)
    sessions = [stack.sessions.create(f"u{i}") for i in range(8)]
    for s in sessions:
        stack.lb.place_session(s, "svc")
    stack.sim.run(until=900.0)
    locations = {stack.multi.location_of(inst)
                 for inst in stack.service.serving()}
    assert locations == {"private", "public"}
    assert stack.sched.cloudbursting
    events = obs_of(stack.sim).events
    assert len(events.events("sched.cloudburst.enter")) == 1

    for s in sessions:
        s.end()
    stack.sim.run(until=2400.0)
    assert not stack.sched.cloudbursting
    assert len(events.events("sched.cloudburst.exit")) >= 1
    remaining = {stack.multi.location_of(inst)
                 for inst in stack.service.serving()}
    assert remaining == {"private"}


def test_private_only_policy_refuses_instead_of_bursting():
    stack = Stack(private_vcpus=4, sessions_per_replica=1,
                  policy=PrivateOnlyPolicy())
    stack.lb.manage(stack.service)
    stack.sim.run(until=120.0)
    for i in range(6):
        stack.lb.place_session(stack.sessions.create(f"u{i}"), "svc")
    stack.sim.run(until=900.0)
    assert all(stack.multi.location_of(inst) == "private"
               for inst in stack.service.serving())
    assert len(stack.service.serving()) == 2  # 4 vcpus / 2 per replica
    assert stack.lb.metrics.counter("scaleup.refused").value > 0


def test_crash_triggers_replacement_and_session_migration():
    stack = Stack(sessions_per_replica=4, min_replicas=2)
    stack.lb.manage(stack.service, initial_replicas=2)
    stack.sim.run(until=120.0)
    a, b = stack.service.serving()
    session = stack.sessions.create("victim")
    session.assign(a)
    crash_time = 200.0
    stack.injector.crash_at(crash_time - stack.sim.now, a)
    stack.sim.run(until=600.0)
    # session moved to the surviving or replacement replica
    assert session.instance is not None
    assert session.instance is not a
    assert session.instance.is_serving
    assert len(session.migrations) == 1
    detection = obs_of(stack.sim).events.events("lb.fault.detected")
    assert detection and detection[0].fields["verdict"] == "dead"
    assert detection[0].t - crash_time <= stack.monitor.interval + 0.001
    # pool is back at strength
    assert len(stack.service.serving()) == 2


def test_degraded_instance_replaced():
    stack = Stack(sessions_per_replica=4, min_replicas=2)
    stack.lb.manage(stack.service, initial_replicas=2)
    stack.sim.run(until=120.0)
    a = stack.service.serving()[0]
    session = stack.sessions.create("victim")
    session.assign(a)
    stack.injector.degrade(a)
    stack.sim.run(until=600.0)
    assert session.instance is not a
    faults = stack.lb.metrics.counter("fault.wedged").value
    assert faults == 1
    assert a.is_gone  # LB destroyed the sick instance


def test_blackholed_instance_replaced():
    stack = Stack(sessions_per_replica=4, min_replicas=2)
    stack.lb.manage(stack.service, initial_replicas=2)
    stack.sim.run(until=120.0)
    a = stack.service.serving()[0]
    stack.injector.blackhole(a)

    def traffic():
        while True:
            yield 2.0
            if a.is_gone:
                return
            a.record_bytes_in(500)
            a.record_bytes_out(500)

    stack.sim.spawn(traffic(), name="traffic")
    stack.sim.run(until=600.0)
    assert stack.lb.metrics.counter("fault.blackholed").value == 1
    assert a.is_gone


def test_rebalance_evens_out_sessions():
    stack = Stack(sessions_per_replica=4, autoscale_interval=10.0, min_replicas=2)
    stack.lb.manage(stack.service, initial_replicas=2)
    stack.sim.run(until=120.0)
    a, b = stack.service.serving()
    sessions = [stack.sessions.create(f"u{i}") for i in range(6)]
    for s in sessions:
        s.assign(a)  # pile everyone onto one replica
    stack.sim.run(until=200.0)
    on_a = len(stack.sessions.on_instance(a))
    on_b = len(stack.sessions.on_instance(b))
    assert abs(on_a - on_b) <= 1
    assert stack.lb.metrics.counter("rebalances").value > 0


def test_resource_broker_connect_pushes_assignment():
    stack = Stack()
    stack.lb.manage(stack.service)
    stack.sim.run(until=120.0)
    rb = stack.make_rb()
    received = []
    session = rb.connect("alice", "svc")
    session.channel.on_client_message(received.append)
    stack.sim.run(until=stack.sim.now + 10.0)
    assert session.state.value == "active"
    assigns = [m for m in received if m["type"] == "session.assign"]
    assert assigns and assigns[0]["instance"] == session.instance_address
    rb.disconnect(session)
    assert session.state.value == "ended"


def test_resource_broker_preboot_expands_pool():
    stack = Stack(sessions_per_replica=4, autoscale_interval=10000.0)
    stack.lb.manage(stack.service)
    stack.sim.run(until=120.0)
    rb = stack.make_rb()
    rb.preboot("svc", 3)  # warm floor of three replicas
    stack.sim.run(until=stack.sim.now + 300.0)
    assert len(stack.service.serving()) >= 3


def test_duplicate_manage_rejected():
    stack = Stack()
    stack.lb.manage(stack.service)
    with pytest.raises(ValueError):
        stack.lb.manage(stack.service)
