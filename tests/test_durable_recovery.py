"""Recovery paths: orphan re-adoption, lease split-brain, chaos faults."""

import pytest

from repro.broker.health import HealthMonitor, HealthVerdict
from repro.cloud import (
    BlobStore,
    FaultInjector,
    ImageKind,
    MachineImage,
    MEDIUM,
    OpenStackCloud,
    StorageUnavailable,
)
from repro.durable import JournalStore, RecoveryManager, replay
from repro.durable import journal as j
from repro.obs.hub import obs_of
from repro.services import Network, WpsService
from repro.services.wps import InputSpec, ProcessDescription, WpsProcess
from repro.sim import Simulator
from tests.test_durable import live_owner
from repro.workflow import (
    CloudWorkflowEngine,
    ServiceCall,
    Workflow,
    WorkflowNode,
    service_node,
)
from repro.workflow.cloud import StageFailure


def make_slow_wps(sim, seconds=8.0):
    """A WPS service whose model job takes ``seconds`` of CPU time."""
    store = BlobStore(sim)
    service = WpsService(sim, "slow", store.create_container("status"))
    description = ProcessDescription(
        identifier="slow-model", title="Deliberately slow model",
        inputs=[InputSpec("depth", "float", required=False, default=1.0)],
        outputs=["peak"])
    service.add_process(WpsProcess(
        description,
        run=lambda inputs: {"peak": inputs["depth"] * 2.0},
        cost=lambda inputs: seconds))
    return service


def build_workflow(address_of):
    wf = Workflow("durable-study")
    wf.add(WorkflowNode("choose-storm",
                        lambda p, u: {"depth": p["depth"]},
                        params_used=("depth",)))
    wf.add(service_node(
        "run-model",
        ServiceCall(process_id="slow-model", address_of=address_of,
                    build_inputs=lambda p, u: u["choose-storm"]),
        depends_on=("choose-storm",)))
    return wf


@pytest.fixture()
def rig():
    """A booted cloud: WPS host + two executor instances + fabric."""
    sim = Simulator()
    network = Network(sim)
    cloud = OpenStackCloud(sim, total_vcpus=16)
    image = MachineImage(image_id="img-0", name="svc",
                         kind=ImageKind.STREAMLINED, run_speed_factor=1.0)
    wps_host = cloud.launch(image, MEDIUM)
    executor = cloud.launch(image, MEDIUM)
    replacement = cloud.launch(image, MEDIUM)
    sim.run()  # boot everything
    wps = make_slow_wps(sim, seconds=8.0)
    wps.replica(wps_host).bind(network)
    journals = JournalStore(sim, BlobStore(sim, name="durable"))
    return dict(sim=sim, network=network, cloud=cloud, wps_host=wps_host,
                executor=executor, replacement=replacement,
                journals=journals)


def test_crashed_run_readopted_recomputes_only_in_flight_stage(rig):
    sim, journals = rig["sim"], rig["journals"]
    monitor = HealthMonitor(sim, interval=1.0, window=2)
    monitor.watch(rig["executor"])
    engine = CloudWorkflowEngine(
        sim, rig["network"], store=journals, executor=rig["executor"],
        lease_ttl=10.0)
    recovery = RecoveryManager(
        sim, journals, monitor=monitor,
        engine_factory=lambda: CloudWorkflowEngine(
            sim, rig["network"], store=journals,
            executor=rig["replacement"], lease_ttl=10.0))
    workflow = build_workflow(lambda: rig["wps_host"].address)
    recovery.register_workflow(workflow)
    injector = FaultInjector(sim, [rig["cloud"]])

    done = engine.run(workflow, {"depth": 30.0})
    # deterministic schedule: kill the executor 2s in, mid run-model
    injector.crash_at(2.0, rig["executor"])
    sim.run(until=sim.now + 60.0)

    # the original attempt observed its executor dying
    assert done.value is None
    assert isinstance(engine.runs()[0].failure, StageFailure)
    assert engine.runs()[0].failure.kind == "executor-lost"

    # detection is assertable from the verdict-transition history
    transitions = monitor.transitions(rig["executor"])
    assert any(t.verdict == HealthVerdict.DEAD for t in transitions)
    dead = next(t for t in transitions
                if t.verdict == HealthVerdict.DEAD)
    assert dead.previous == HealthVerdict.HEALTHY

    # recovery re-adopted the orphan: completed stages replayed from the
    # journal, only the in-flight stage re-executed
    reports = recovery.recovered()
    assert len(reports) == 1
    report = reports[0]
    assert report.stages_replayed == 1
    assert report.recomputed == ["run-model"]
    assert report.adopted_at >= 10.0  # never before the lease lapsed

    state = replay(journals.open(report.run_id).records())
    assert state.status == "done"
    assert state.adoptions == 1
    assert state.owner == rig["replacement"].instance_id


def test_an_unregistered_workflow_is_stranded_in_its_report(rig):
    """Who was condemned, when, and why nothing adopted the run are read
    from the run's :class:`RecoveryReport`."""
    sim, journals = rig["sim"], rig["journals"]
    monitor = HealthMonitor(sim, interval=1.0, window=2)
    monitor.watch(rig["executor"])
    engine = CloudWorkflowEngine(
        sim, rig["network"], store=journals, executor=rig["executor"],
        lease_ttl=10.0)
    recovery = RecoveryManager(
        sim, journals, monitor=monitor,
        engine_factory=lambda: CloudWorkflowEngine(
            sim, rig["network"], store=journals,
            executor=rig["replacement"], lease_ttl=10.0))
    engine.run(build_workflow(lambda: rig["wps_host"].address),
               {"depth": 30.0})
    start = sim.now
    FaultInjector(sim, [rig["cloud"]]).crash_at(2.0, rig["executor"])
    sim.run(until=sim.now + 60.0)

    (report,) = recovery.reports
    assert report.instance_id == rig["executor"].instance_id
    assert report.verdict == HealthVerdict.DEAD.value
    assert start + 2.0 <= report.detected_at < start + 10.0
    assert report.error == ("cannot adopt: workflow 'durable-study' "
                            "not registered")
    assert not report.ok and recovery.recovered() == []


def test_journal_lifecycle_and_a_second_engine_seeded_completely(rig):
    """The journaling engine writes the whole protocol, and what it wrote
    is enough for a cold engine to re-run the run with nothing executed
    (one stage key: the journal's keys are the adopter's keys)."""
    sim, journals = rig["sim"], rig["journals"]
    workflow = build_workflow(lambda: rig["wps_host"].address)
    first = CloudWorkflowEngine(sim, rig["network"], store=journals,
                                executor=rig["executor"], lease_ttl=10.0)
    done = first.run(workflow, {"depth": 30.0})
    sim.run(until=sim.now + 60.0)
    record = done.value
    assert record.recomputed() == ["choose-storm", "run-model"]

    records = journals.open(record.run_id).records()
    assert [r.kind for r in records if r.kind != j.LEASE] == [
        j.SCHEDULED, j.STARTED, j.CHECKPOINT, j.CHECKPOINT, j.DONE]
    state = replay(records)
    assert state.status == "done" and state.owner == first.executor_id
    assert state.completed == ["choose-storm", "run-model"]
    assert state.parameters == {"depth": 30.0}
    assert live_owner(journals.open(record.run_id).lease(), sim.now) is None   # released

    second = CloudWorkflowEngine(sim, rig["network"], store=journals,
                                 executor=rig["replacement"], lease_ttl=10.0)
    rerun = second.run(workflow, {"depth": 30.0}, run_id=record.run_id)
    sim.run(until=sim.now + 60.0)
    assert rerun.value.recomputed() == []
    assert rerun.value.outputs == record.outputs
    assert [s.cache_key for s in rerun.value.stages] \
        == [s.cache_key for s in record.stages]


def test_blackhole_heal_leaves_exactly_one_owner(rig):
    sim, journals = rig["sim"], rig["journals"]
    wps = make_slow_wps(sim, seconds=25.0)
    wps_host = rig["wps_host"]
    # rebind a slower process on a second host so the run outlives leases
    slow_host = rig["cloud"].launch(
        MachineImage(image_id="img-1", name="svc",
                     kind=ImageKind.STREAMLINED), MEDIUM)
    sim.run()
    wps.replica(slow_host).bind(rig["network"])

    engine_a = CloudWorkflowEngine(
        sim, rig["network"], store=journals, executor=rig["executor"],
        lease_ttl=6.0)
    recovery = RecoveryManager(
        sim, journals,
        engine_factory=lambda: CloudWorkflowEngine(
            sim, rig["network"], store=journals,
            executor=rig["replacement"], lease_ttl=6.0))
    workflow = build_workflow(lambda: slow_host.address)
    recovery.register_workflow(workflow)
    injector = FaultInjector(sim, [rig["cloud"]])

    start = sim.now
    done_a = engine_a.run(workflow, {"depth": 12.0})
    run_id = journals.run_ids()[0]
    sim.schedule(2.0, injector.blackhole, rig["executor"])
    # ops notice the dark executor and condemn it
    sim.schedule(3.0, recovery.recover_instance,
                 rig["executor"].instance_id, "blackholed")
    sim.schedule(9.0, injector.heal, rig["executor"])
    sim.run(until=sim.now + 90.0)

    # exactly one DONE in the journal, owned by the adopter
    records = journals.open(run_id).records()
    assert sum(1 for r in records if r.kind == j.DONE) == 1
    state = replay(records)
    assert state.status == "done"
    assert state.owner == rig["replacement"].instance_id
    # the healed original lost its lease and abandoned, typed not raised
    assert done_a.value is None
    failure = engine_a.runs()[0].failure
    assert isinstance(failure, StageFailure)
    assert failure.kind == "executor-lost"
    # adoption waited for the blackholed owner's lease to lapse
    report = recovery.recovered()[0]
    assert report.adopted_at >= start + 6.0
    lost = [e for e in obs_of(sim).events.events()
            if e.kind == "durable.lease.lost"]
    assert lost


def test_degrade_then_recover_shows_in_transitions(rig):
    sim = rig["sim"]
    monitor = HealthMonitor(sim, interval=1.0, window=2)
    monitor.watch(rig["executor"])
    injector = FaultInjector(sim, [rig["cloud"]])
    t0 = sim.now
    sim.schedule(5.0, injector.degrade, rig["executor"], 0.1)
    sim.schedule(30.0, injector.heal, rig["executor"])
    sim.run(until=t0 + 40.0)

    transitions = monitor.transitions(rig["executor"])
    assert transitions, "degradation must show up as verdict changes"
    # pinned CPU was noticed shortly after injection...
    first = transitions[0]
    assert first.verdict in (HealthVerdict.OVERLOADED, HealthVerdict.WEDGED)
    assert t0 + 5.0 <= first.time <= t0 + 5.0 + 3 * monitor.interval
    # ...and the heal brought the verdict back to HEALTHY
    assert transitions[-1].verdict == HealthVerdict.HEALTHY
    assert transitions[-1].time >= t0 + 30.0
    # the injector's own record of what it did is structured
    kinds = [f.kind for f in injector.injected]
    assert kinds == ["degrade", "heal"]
    assert all(f.target == rig["executor"].instance_id
               for f in injector.injected)


def test_no_address_dispatch_fails_typed_and_journaled(rig):
    sim, journals = rig["sim"], rig["journals"]
    engine = CloudWorkflowEngine(sim, rig["network"], store=journals,
                                 executor=rig["executor"], lease_ttl=10.0)
    # the session this stage targeted has migrated away: no address
    workflow = build_workflow(lambda: None)
    done = engine.run(workflow, {"depth": 5.0})
    sim.run()
    assert done.value is None
    record = engine.runs()[0]
    assert isinstance(record.failure, StageFailure)
    assert record.failure.kind == "no-address"
    assert record.failure.node_id == "run-model"
    # the failure is in the journal, typed, not a bare exception
    state = replay(journals.open(record.run_id).records())
    assert state.status == "failed"
    assert "no endpoint resolves" in state.failure


def test_storage_outage_heals_after_duration(rig):
    sim = rig["sim"]
    blob = BlobStore(sim, name="provider-store")
    container = blob.create_container("data")
    injector = FaultInjector(sim, [rig["cloud"]])
    injector.register_region("private", [rig["cloud"]], stores=[blob])
    injector.outage(blob.name, duration=30.0)
    with pytest.raises(StorageUnavailable):
        container.put("k", "v")
    sim.run(until=sim.now + 31.0)
    container.put("k", "v")
    assert container.get("k").payload == "v"
    kinds = [f.kind for f in injector.injected]
    assert kinds == ["outage", "heal_storage"]
