"""Unit tests for sessions and the health monitor."""

import pytest

from repro.broker import HealthMonitor, HealthVerdict, SessionState, SessionTable
from repro.cloud import Flavor, ImageKind, Instance, Job, MachineImage
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def make_instance(sim, instance_id="os-0000", vcpus=1):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("f", vcpus, 2048, 20))
    inst._mark_running()
    return inst


class FakeChannel:
    def __init__(self):
        self.pushed = []

    def push(self, payload):
        self.pushed.append(payload)


# -- sessions ------------------------------------------------------------------


def test_session_lifecycle_and_wait_time(sim):
    table = SessionTable(sim)
    channel = FakeChannel()
    session = table.create("alice", channel)
    assert session.state == SessionState.WAITING
    assert session.wait_time is None

    sim.run(until=3.0)
    instance = make_instance(sim)
    session.assign(instance)
    assert session.state == SessionState.ACTIVE
    assert session.wait_time == 3.0
    assert session.instance_address == instance.address
    assert channel.pushed[-1]["type"] == "session.assign"

    session.end()
    assert session.state == SessionState.ENDED
    assert channel.pushed[-1]["type"] == "session.end"
    session.end()  # idempotent


def test_session_migration_recorded_and_pushed(sim):
    table = SessionTable(sim)
    channel = FakeChannel()
    session = table.create("alice", channel)
    a, b = make_instance(sim, "os-0001"), make_instance(sim, "os-0002")
    session.assign(a)
    session.assign(b)
    assert len(session.migrations) == 1
    assert session.migrations[0]["from"] == a.address
    assert session.migrations[0]["to"] == b.address
    # re-assigning the same instance is not a migration
    session.assign(b)
    assert len(session.migrations) == 1


def test_session_ids_follow_the_simulator_and_render_on_first_read(sim):
    first, second = SessionTable(sim), SessionTable(sim)
    a, b, c = first.create("a"), second.create("b"), first.create("c")
    # opening a session renders no id and allocates no migration list
    assert "session_id" not in vars(a) and a.migrations == ()
    assert [s.session_id for s in (a, b, c)] == [
        "sess-000000", "sess-000001", "sess-000002"]
    assert a.session_id is vars(a)["session_id"]
    assert first.all() == [a, c] and second.all() == [b]
    assert SessionTable(Simulator()).create("z").session_id == "sess-000000"


def test_assign_after_end_rejected(sim):
    session = SessionTable(sim).create("alice")
    session.end()
    with pytest.raises(ValueError):
        session.assign(make_instance(sim))


def test_unassign_returns_session_to_waiting(sim):
    session = SessionTable(sim).create("alice", FakeChannel())
    session.assign(make_instance(sim))
    session.unassign()
    assert session.state == SessionState.WAITING
    assert session.instance is None


def test_table_queries(sim):
    table = SessionTable(sim)
    a = table.create("a")
    b = table.create("b")
    instance = make_instance(sim)
    a.assign(instance)
    assert table.active() == [a]
    assert table.waiting() == [b]
    assert table.on_instance(instance) == [a]
    assert table.active_count() + table.waiting_count() == 2
    a.end()
    assert table.active_count() + table.waiting_count() == 1


# -- health monitor -----------------------------------------------------------


def test_monitor_healthy_instance(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=4)
    instance = make_instance(sim)
    monitor.watch(instance)
    sim.run(until=60.0)
    assert monitor.verdict(instance) == HealthVerdict.HEALTHY
    assert len(monitor._samples[instance.instance_id]) >= monitor.window


def test_monitor_detects_dead_instance(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=4)
    instance = make_instance(sim)
    monitor.watch(instance)
    verdicts = []
    monitor.on_verdict(lambda inst, v: verdicts.append((sim.now, v)))
    sim.schedule(12.0, instance._mark_failed, "crash")
    sim.run(until=30.0)
    assert verdicts
    first_time, first_verdict = verdicts[0]
    assert first_verdict == HealthVerdict.DEAD
    # detected at the first sampling tick after the crash
    assert first_time == 15.0


def test_monitor_detects_wedged_instance(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=3)
    instance = make_instance(sim)
    monitor.watch(instance)
    sim.schedule(1.0, instance._degrade, 1e-9)  # effectively stuck
    # keep it loaded so cpu stays pinned even if degradation cleared
    instance.submit(Job(cost=1e9))
    # pinned but short of the wedged horizon reads as load, not a fault
    sim.run(until=5.0 * (monitor.wedged_window - 2))
    assert monitor.verdict(instance) == HealthVerdict.OVERLOADED
    sim.run(until=5.0 * (monitor.wedged_window + 1))
    assert monitor.verdict(instance) == HealthVerdict.WEDGED


def test_monitor_detects_blackholed_instance(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=3)
    instance = make_instance(sim)
    monitor.watch(instance)
    instance._blackhole()

    def traffic():
        while True:
            yield 2.0
            instance.record_bytes_in(500)
            instance.record_bytes_out(500)  # dropped by the blackhole

    sim.spawn(traffic(), name="traffic")
    sim.run(until=60.0)
    assert monitor.verdict(instance) == HealthVerdict.WEDGED or \
        monitor.verdict(instance) == HealthVerdict.BLACKHOLED
    assert monitor.verdict(instance) == HealthVerdict.BLACKHOLED


def test_monitor_busy_but_progressing_is_overloaded_not_wedged(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=3)
    instance = make_instance(sim, vcpus=1)
    monitor.watch(instance)

    def workload():
        while True:
            instance.submit(Job(cost=2.0))
            yield 1.0  # oversubscribe: CPU pinned but jobs complete

    sim.spawn(workload(), name="load")
    sim.run(until=60.0)
    assert monitor.verdict(instance) == HealthVerdict.OVERLOADED
    assert not HealthVerdict.OVERLOADED.is_fault


def test_monitor_needs_full_window_before_judging(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=4)
    instance = make_instance(sim)
    monitor.watch(instance)
    instance.submit(Job(cost=1e9))
    sim.run(until=10.0)  # only 2 samples
    assert monitor.verdict(instance) == HealthVerdict.HEALTHY


def test_unwatch_stops_sampling(sim):
    monitor = HealthMonitor(sim, interval=5.0, window=2)
    instance = make_instance(sim)
    monitor.watch(instance)
    sim.run(until=11.0)
    monitor.unwatch(instance)
    assert instance.instance_id not in monitor._samples
    assert instance not in monitor.watched()
