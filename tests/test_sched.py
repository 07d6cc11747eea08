"""The scheduling plane: class queues, rendezvous router, ledger.

Pins the plane's two load-bearing guarantees:

* one shard is the general path: the router slices, routes and places
  at ``shards=1`` exactly as at N, and what it places is what driving
  the shard's LB by hand would (the LB stays as the test oracle);
* rendezvous routing is deterministic and minimally disruptive —
  adding/removing a shard only moves the keys that land on it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import (
    LoadBalancer,
    PrivateFirstPolicy,
    ResourceBroker,
    SessionTable,
)
from repro.cloud import ImageKind, ImageStore, MEDIUM
from repro.core.cell import Cell
from repro.obs.hub import obs_of
from repro.obs.refusal import refused
from repro.sched import (
    CapacityLedger,
    ClassedQueue,
    Dispatcher,
    PriorityClass,
    rendezvous_shard,
)
from repro.services import Network, PushGateway, RestApi
from repro.sim import RandomStreams, Simulator


# -- wiring helper -----------------------------------------------------------


class Plane:
    """A wired control plane with a configurable shard count."""

    def __init__(self, shards=1, private_vcpus=64, sessions_per_replica=4,
                 min_replicas=1, max_replicas=16, strict_capacity=False,
                 batch_headroom=0, autoscale_interval=10.0, seed=42):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        self.ledger = CapacityLedger(self.sim)
        cell = Cell(self.sim, self.streams, self.network, self.sessions,
                    self.ledger, region="test", private_vcpus=private_vcpus,
                    shards=shards, health_interval=5.0, health_window=3,
                    autoscale_interval=autoscale_interval,
                    policy=PrivateFirstPolicy())
        self.private, self.public = cell.private, cell.public
        self.multi, self.monitor = cell.multicloud, cell.monitor
        self.lbs, self.lb, self.sched = cell.lbs, cell.lbs[0], cell.router
        for lb in self.lbs:
            lb.strict_capacity = strict_capacity
            lb.batch_headroom = batch_headroom
        self.images = ImageStore()
        self.image = self.images.create("portal", ImageKind.GENERIC,
                                        size_gb=1.0)
        self.api = RestApi("svc")
        self.api.get("/ping", lambda req, p: {"pong": True})
        self.service = cell.service(
            "svc", self.api, self.image,
            sessions_per_replica=sessions_per_replica,
            min_replicas=min_replicas, max_replicas=max_replicas)


# -- class queue -------------------------------------------------------------


def test_classed_queue_priority_order_fifo_within_class():
    q = ClassedQueue()
    q.push("b1", PriorityClass.BATCH)
    q.push("i1", PriorityClass.INTERACTIVE)
    q.push("w1", PriorityClass.WORKFLOW)
    q.push("i2", PriorityClass.INTERACTIVE)
    order = [q.pop()[0] for _ in range(len(q))]
    assert order == ["i1", "i2", "w1", "b1"]
    assert q.pop() is None


def test_classed_queue_bounds_shed_lowest_value_work():
    q = ClassedQueue(bounds={PriorityClass.BATCH: 2})
    assert q.push("b1", PriorityClass.BATCH)
    assert q.push("b2", PriorityClass.BATCH)
    assert not q.push("b3", PriorityClass.BATCH)
    assert q.shed[PriorityClass.BATCH] == 1
    # other classes are unbounded
    for i in range(10):
        assert q.push(f"i{i}", PriorityClass.INTERACTIVE)


def test_classed_queue_front_push_bypasses_bound_and_preserves_order():
    q = ClassedQueue(bounds={PriorityClass.INTERACTIVE: 2})
    q.push("fresh1", PriorityClass.INTERACTIVE)
    q.push("fresh2", PriorityClass.INTERACTIVE)
    # displaced sessions re-enter at the head even when the class is full
    q.push_front_many(["old1", "old2"], PriorityClass.INTERACTIVE,
                      ["default", "default"])
    order = [q.pop()[0] for _ in range(len(q))]
    assert order == ["old1", "old2", "fresh1", "fresh2"]


def test_dispatcher_counters_and_depths():
    sim = Simulator()
    d = Dispatcher(sim, shard_id=3)
    d.register("svc")
    assert d.enqueue("svc", "a", PriorityClass.INTERACTIVE)
    assert d.enqueue("svc", "b", PriorityClass.BATCH)
    assert d.depth("svc") == 2
    assert d.depth("svc", PriorityClass.BATCH) == 1
    assert d.depths() == {"svc": {"interactive": 1, "workflow": 0,
                                  "batch": 1}}
    # one class across services: what the queue-depth probes sample
    d.register("other")
    assert d.enqueue("other", "c", PriorityClass.BATCH)
    assert [d.class_depth(cls) for cls in PriorityClass] == [
        sum(counts[cls.name.lower()] for counts in d.depths().values())
        for cls in PriorityClass] == [1, 0, 2]
    item, cls = d.dequeue("svc")
    assert item == "a" and cls is PriorityClass.INTERACTIVE
    assert d.depth("unknown-svc") == 0


# -- capacity ledger ---------------------------------------------------------


def test_ledger_advisory_without_budgets():
    sim = Simulator()
    ledger = CapacityLedger(sim)
    assert ledger.admit("private", 100)
    ledger.commit("private", 4)
    ledger.commit("private", 4)
    assert ledger.committed("private") == 8
    ledger.release("private", 4)
    assert ledger.committed("private") == 4
    assert ledger.snapshot() == {"private": 4}


def test_ledger_enforces_budget_across_shards():
    sim = Simulator()
    ledger = CapacityLedger(sim, capacity={"public": 8})
    assert ledger.admit("public", 4)
    ledger.commit("public", 4, public=True)
    assert ledger.admit("public", 4)
    ledger.commit("public", 4, public=True)
    assert not ledger.admit("public", 4)    # budget spent, any shard
    assert ledger.refusals == 1
    assert ledger.bursting
    ledger.release("public", 4, public=True)
    ledger.release("public", 4, public=True)
    assert not ledger.bursting
    assert ledger.admit("public", 4)


# -- rendezvous routing ------------------------------------------------------


def test_rendezvous_deterministic_and_order_independent():
    ids = [0, 1, 2, 3]
    for key in ("sess-000001", "run-42", "topmodel-morland"):
        shard = rendezvous_shard(key, ids)
        assert rendezvous_shard(key, ids) == shard
        assert rendezvous_shard(key, list(reversed(ids))) == shard
        assert shard in ids


def test_rendezvous_rejects_empty():
    with pytest.raises(ValueError):
        rendezvous_shard("key", [])


def test_rendezvous_single_shard_is_total():
    assert all(rendezvous_shard(f"k{i}", [0]) == 0 for i in range(50))


@settings(max_examples=50, deadline=None)
@given(keys=st.sets(st.text(min_size=1, max_size=24), min_size=1,
                    max_size=64),
       shards=st.integers(min_value=2, max_value=12))
def test_rendezvous_remove_only_moves_the_removed_shards_keys(keys, shards):
    ids = list(range(shards))
    before = {key: rendezvous_shard(key, ids) for key in keys}
    survivors = ids[:-1]
    after = {key: rendezvous_shard(key, survivors) for key in keys}
    for key in keys:
        if before[key] != ids[-1]:
            assert after[key] == before[key]


@settings(max_examples=50, deadline=None)
@given(keys=st.sets(st.text(min_size=1, max_size=24), min_size=1,
                    max_size=64),
       shards=st.integers(min_value=1, max_value=11))
def test_rendezvous_add_only_claims_keys_for_the_new_shard(keys, shards):
    ids = list(range(shards))
    before = {key: rendezvous_shard(key, ids) for key in keys}
    grown = ids + [shards]
    after = {key: rendezvous_shard(key, grown) for key in keys}
    for key in keys:
        assert after[key] == before[key] or after[key] == shards


@settings(max_examples=25, deadline=None)
@given(keys=st.sets(st.text(min_size=1, max_size=24), min_size=20,
                    max_size=200))
def test_rendezvous_uses_every_shard_eventually(keys):
    # with enough keys the distribution touches several shards — a
    # smoke check that scores are not degenerate, not a uniformity test
    ids = list(range(4))
    used = {rendezvous_shard(key, ids) for key in keys}
    assert len(used) >= 2


# -- shards=1: the router against the LB driven by hand -----------------------


def _place_and_snapshot(via_router):
    plane = Plane(shards=1, min_replicas=2)
    plane.sched.manage(plane.service, initial_replicas=2)
    plane.sim.run(until=300.0)
    for i in range(12):
        session = plane.sessions.create(f"user-{i}")
        if via_router:
            plane.sched.submit_session(session, "svc")
        else:
            plane.lb.place_session(session, "svc")
    plane.sim.run(until=600.0)
    return [(s.user_name, s.state.value,
             None if s.instance is None else s.instance.instance_id,
             s.wait_time)
            for s in plane.sessions.all()]


def test_single_shard_router_identical_to_direct_lb_path():
    assert _place_and_snapshot(via_router=True) == \
        _place_and_snapshot(via_router=False)


def test_single_shard_router_manages_one_slice():
    plane = Plane(shards=1, min_replicas=2, max_replicas=7)
    (managed,) = plane.sched.manage(plane.service)
    # the template is cut exactly as at N shards: the one slice keeps the
    # original floors/ceilings and is the live pool; the template is not
    assert managed is not plane.service
    assert (managed.min_replicas, managed.max_replicas) == (2, 7)
    assert plane.lb.service("svc") is managed
    assert plane.sched.services() == [managed]
    assert plane.sched.slices("svc") == [(plane.lb, managed)]
    plane.sim.run(until=300.0)
    assert len(managed.serving()) == 2 and not plane.service.replicas


# -- sharded placement -------------------------------------------------------


def test_sharded_plane_places_every_session():
    plane = Plane(shards=4, min_replicas=4, max_replicas=16,
                  private_vcpus=256)
    slices = plane.sched.manage(plane.service, initial_replicas=8)
    assert len(slices) == 4
    assert sum(s.max_replicas for s in slices) == 16
    plane.sim.run(until=300.0)
    per_shard = {}
    for i in range(40):
        shard = plane.sched.submit_session(
            plane.sessions.create(f"user-{i}"), "svc")
        per_shard[shard] = per_shard.get(shard, 0) + 1
    plane.sim.run(until=600.0)
    assert sum(per_shard.values()) == 40
    assert len(per_shard) >= 2           # rendezvous spread the keys
    assert all(s.state.value == "active" for s in plane.sessions.all())
    # routing is stable: resubmitting the same key hits the same shard
    for session in plane.sessions.all():
        shard = plane.sched.shard_of(session.session_id, "svc")
        assert plane.sched.shard_of(session.session_id, "svc") == shard


def test_sharded_drain_routes_to_owning_shard():
    plane = Plane(shards=2, min_replicas=2, private_vcpus=128)
    plane.sched.manage(plane.service, initial_replicas=4)
    plane.sim.run(until=300.0)
    victim = plane.sched.services()[0].serving()[0]
    done = plane.sched.drain(victim)
    plane.sim.run(until=600.0)
    assert done.value is True
    assert victim.is_gone


# -- priority classes end to end ---------------------------------------------


def test_strict_capacity_serves_interactive_before_batch():
    plane = Plane(strict_capacity=True, sessions_per_replica=2,
                  max_replicas=1)
    plane.sched.manage(plane.service, initial_replicas=0)
    batch = [plane.sessions.create(f"sweep-{i}") for i in range(2)]
    for s in batch:
        plane.lb.place_session(s, "svc", priority=PriorityClass.BATCH)
    vip = plane.sessions.create("stakeholder")
    plane.lb.place_session(vip, "svc", priority=PriorityClass.INTERACTIVE)
    plane.sim.run(until=600.0)      # one replica boots, two slots drain
    assert vip.state.value == "active"
    assert [s.state.value for s in batch] == ["active", "waiting"]


def test_batch_headroom_reserves_slots_for_interactive():
    plane = Plane(strict_capacity=True, batch_headroom=1,
                  sessions_per_replica=2, max_replicas=1)
    plane.sched.manage(plane.service, initial_replicas=1)
    plane.sim.run(until=300.0)
    b1 = plane.sessions.create("sweep-1")
    plane.lb.place_session(b1, "svc", priority=PriorityClass.BATCH)
    b2 = plane.sessions.create("sweep-2")
    plane.lb.place_session(b2, "svc", priority=PriorityClass.BATCH)
    assert b1.state.value == "active"
    assert b2.state.value == "waiting"   # last free slot is reserved
    vip = plane.sessions.create("stakeholder")
    plane.lb.place_session(vip, "svc", priority=PriorityClass.INTERACTIVE)
    assert vip.state.value == "active"   # ... for exactly this arrival


def test_bounded_queue_sheds_batch_at_capacity():
    sim = Simulator()
    plane = Plane(strict_capacity=True, sessions_per_replica=1,
                  max_replicas=1)
    lb = LoadBalancer(plane.sim, plane.multi, plane.network, plane.sessions,
                      PrivateFirstPolicy(), monitor=plane.monitor,
                      ledger=CapacityLedger(plane.sim),
                      strict_capacity=True,
                      queue_bounds={PriorityClass.BATCH: 1})
    lb.manage(plane.service, initial_replicas=0)
    accepted = plane.sessions.create("b-ok")
    lb.place_session(accepted, "svc", priority=PriorityClass.BATCH)
    shed = plane.sessions.create("b-shed")
    lb.place_session(shed, "svc", priority=PriorityClass.BATCH)
    assert lb.dispatcher.depth("svc", PriorityClass.BATCH) == 1
    assert refused(plane.sim, cause="queue_full") == 1
    assert obs_of(plane.sim).events.events("refused")[-1].fields["item"] \
        == shed.session_id
    assert shed.state.value == "waiting"   # shed, never queued


# -- migration re-enters at the head (the satellite pin) ---------------------


def test_displaced_sessions_requeue_at_head_of_their_class():
    plane = Plane(strict_capacity=True, sessions_per_replica=2,
                  max_replicas=2, autoscale_interval=10.0)
    plane.sched.manage(plane.service, initial_replicas=1)
    plane.sim.run(until=300.0)
    (replica,) = plane.lb.service("svc").serving()
    olds = [plane.sessions.create(f"old-{i}") for i in range(2)]
    for s in olds:
        plane.lb.place_session(s, "svc")
    assert all(s.instance is replica for s in olds)
    fresh = [plane.sessions.create(f"fresh-{i}") for i in range(2)]
    for s in fresh:
        plane.lb.place_session(s, "svc")
    assert all(s.state.value == "waiting" for s in fresh)
    # drain the only replica: the old sessions are displaced with no
    # target and must re-enter *ahead* of the fresh arrivals
    plane.lb.drain(replica)
    queued = plane.lb.dispatcher.queue("svc").items(
        PriorityClass.INTERACTIVE)
    assert [s.user_name for s in queued] == \
        ["old-0", "old-1", "fresh-0", "fresh-1"]
    plane.sim.run(until=900.0)      # a replacement replica boots
    assert all(s.state.value == "active" for s in olds)
    requeues = plane.lb.metrics.sub("sched").counter(
        "requeue.interactive").value
    assert requeues == 2


# -- spans on the substrate --------------------------------------------------


def test_queued_session_gets_sched_submit_span():
    from repro.obs import obs_of
    plane = Plane(autoscale_interval=10000.0)
    plane.sched.manage(plane.service, initial_replicas=0)
    gateway_instance = plane.private.launch(plane.image, MEDIUM)
    plane.sim.run(until=120.0)
    gateway = PushGateway(plane.sim, gateway_instance,
                          streams=plane.streams)
    rb = ResourceBroker(plane.sim, plane.sched, plane.sessions, gateway)
    session = rb.connect("traced-user", "svc")
    plane.sim.run(until=900.0)
    assert session.state.value == "active"
    spans = obs_of(plane.sim).tracer.spans(
        trace_id=session.trace_context.trace_id)
    names = [s.name for s in spans]
    assert "sched.submit" in names
    assert "sched.place" in names
    submit = next(s for s in spans if s.name == "sched.submit")
    assert submit.attributes["shard"] == 0
    assert submit.attributes["class"] == "interactive"
    assert submit.finished


# -- the deployment facade at shards > 1 -------------------------------------


def test_evop_boots_and_serves_with_sharded_plane():
    from repro.core import AdminConsole, Evop, EvopConfig

    evop = Evop(EvopConfig(truth_days=4, storm_day=2, shards=3,
                           private_vcpus=64)).bootstrap()
    evop.run_for(400.0)
    assert evop.sched.shards == 3
    slices = evop.sched.slices(evop.service_name("morland"))
    assert 1 <= len(slices) <= 3
    sessions = [evop.rb.connect(f"user-{i}",
                                evop.service_name("morland"))
                for i in range(9)]
    evop.run_for(300.0)
    assert all(s.state.value == "active" for s in sessions)
    status = AdminConsole(evop).status()
    assert status["scheduling"]["shards"] == 3
    assert set(status["scheduling"]["queue_depths"]) == {0, 1, 2}


def test_evop_config_rejects_bad_shards():
    from repro.core import EvopConfig
    with pytest.raises(ValueError):
        EvopConfig(shards=0)
