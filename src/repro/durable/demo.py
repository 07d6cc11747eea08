"""``python -m repro chaos`` — durable execution in ninety seconds.

Boots a small cloud, starts a journaled workflow on one executor, kills
the executor mid-stage with the fault injector, lets the health monitor
notice, and watches the recovery manager re-adopt the run on a
replacement — printing the journal as it grows so the write-ahead /
replay story is visible.
"""

from __future__ import annotations

from repro.broker.health import HealthMonitor, HealthVerdict
from repro.cloud import (
    BlobStore,
    FaultInjector,
    ImageKind,
    MachineImage,
    MEDIUM,
    OpenStackCloud,
)
from repro.durable import JournalStore, RecoveryManager, replay
from repro.services import Network, WpsService
from repro.services.wps import InputSpec, ProcessDescription, WpsProcess
from repro.sim import Simulator
from repro.workflow import (
    CloudWorkflowEngine,
    ServiceCall,
    Workflow,
    WorkflowNode,
    service_node,
)


def _slow_wps(sim, seconds: float) -> WpsService:
    store = BlobStore(sim)
    service = WpsService(sim, "chaos", store.create_container("status"))
    description = ProcessDescription(
        identifier="storm-model", title="Storm impact model",
        inputs=[InputSpec("depth", "float", required=False, default=1.0)],
        outputs=["peak"])
    service.add_process(WpsProcess(
        description,
        run=lambda inputs: {"peak": inputs["depth"] * 2.0},
        cost=lambda inputs: seconds))
    return service


def _workflow(address_of) -> Workflow:
    wf = Workflow("chaos-study")
    wf.add(WorkflowNode("choose-storm",
                        lambda p, u: {"depth": p["depth"]},
                        params_used=("depth",)))
    wf.add(service_node(
        "run-model",
        ServiceCall(process_id="storm-model", address_of=address_of,
                    build_inputs=lambda p, u: u["choose-storm"]),
        depends_on=("choose-storm",)))
    return wf


def run_chaos() -> None:
    """The chaos demo: crash an executor, watch the run survive."""
    print("repro chaos - durable execution under an executor crash")
    sim = Simulator()
    network = Network(sim)
    cloud = OpenStackCloud(sim, total_vcpus=16)
    image = MachineImage(image_id="img-0", name="svc",
                         kind=ImageKind.STREAMLINED)
    wps_host = cloud.launch(image, MEDIUM)
    executor = cloud.launch(image, MEDIUM)
    replacement = cloud.launch(image, MEDIUM)
    sim.run()
    print(f"booted: wps={wps_host.instance_id} "
          f"executor={executor.instance_id} "
          f"replacement={replacement.instance_id}")

    wps = _slow_wps(sim, seconds=8.0)
    wps.replica(wps_host).bind(network)
    journals = JournalStore(sim, BlobStore(sim, name="chaos-store"))
    monitor = HealthMonitor(sim, interval=1.0, window=2)
    monitor.watch(executor)
    engine = CloudWorkflowEngine(sim, network, store=journals,
                                 executor=executor, lease_ttl=10.0)
    recovery = RecoveryManager(
        sim, journals, monitor=monitor,
        engine_factory=lambda: CloudWorkflowEngine(
            sim, network, store=journals, executor=replacement,
            lease_ttl=10.0))
    workflow = _workflow(lambda: wps_host.address)
    recovery.register_workflow(workflow)
    injector = FaultInjector(sim, [cloud])

    t0 = sim.now
    done = engine.run(workflow, {"depth": 30.0})
    run_id = journals.run_ids()[0]
    print(f"\nsubmitted journaled run {run_id} on {executor.instance_id}")
    injector.crash_at(2.0, executor, cause="chaos demo")
    print("scheduled: executor crash 2s in (mid run-model)")
    sim.run(until=t0 + 60.0)

    print(f"\njournal of {run_id}:")
    for record in journals.open(run_id).records():
        extra = ""
        if record.kind == "CHECKPOINT":
            extra = f" stage={record.payload.get('node_id')}"
        elif record.kind in ("STARTED", "ADOPTED", "LEASE"):
            extra = f" owner={record.payload.get('owner')}"
        print(f"  t={record.time:6.1f}  #{record.seq:02d}  "
              f"{record.kind:10s}{extra}")

    dead = [t for t in monitor.transitions(executor)
            if t.verdict == HealthVerdict.DEAD]
    if dead:
        print(f"\nhealth monitor: {executor.instance_id} "
              f"HEALTHY -> DEAD at t={dead[0].time:.1f} "
              f"(crash was t={t0 + 2.0:.1f})")
    assert done.value is None, "the crashed attempt must not complete"
    reports = recovery.recovered()
    assert reports, "recovery must have re-adopted the run"
    report = reports[0]
    state = replay(journals.open(run_id).records())
    print(f"recovery: adopted at t={report.adopted_at:.1f} on "
          f"{replacement.instance_id}, replayed "
          f"{report.stages_replayed} stage(s) from the journal, "
          f"recomputed only {report.recomputed}")
    print(f"final state: {state.status} after {state.attempts} attempt(s), "
          f"{state.adoptions} adoption(s)")
    print("\nthe run completed despite losing its executor; completed "
          "stages were\nnever re-executed. next: PYTHONPATH=src python "
          "-m pytest benchmarks/bench_durability.py -s")


if __name__ == "__main__":
    run_chaos()
