"""Tests for service composition and the operator console."""

import pytest

from repro.core import AdminConsole, Evop, EvopConfig
from repro.data import STUDY_CATCHMENTS, DesignStorm
from repro.hydrology import HydrographAnalysis, TopmodelParameters
from repro.services import HttpRequest, InputSpec
from repro.sim import RandomStreams
from repro.workflow import (
    Workflow,
    WorkflowEngine,
    WorkflowNode,
    compose_wps_process,
)


def storm_workflow():
    morland = STUDY_CATCHMENTS["morland"]
    workflow = Workflow("storm-study")
    workflow.add(WorkflowNode(
        "weather",
        lambda p, u: morland.weather_generator(
            RandomStreams(int(p["seed"]))).rainfall_with_storm(
                96, DesignStorm(24, 8, float(p["depth"])),
                start_day_of_year=330),
        params_used=("seed", "depth")))
    workflow.add(WorkflowNode(
        "model",
        lambda p, u: morland.topmodel().run(
            u["weather"],
            parameters=TopmodelParameters(q0_mm_h=0.3)).flow,
        depends_on=("weather",)))
    workflow.add(WorkflowNode(
        "summary",
        lambda p, u: HydrographAnalysis(u["model"]).summary(threshold=2.0),
        depends_on=("model",)))
    return workflow


def make_composite(engine=None):
    return compose_wps_process(
        storm_workflow(),
        identifier="storm-impact-study",
        title="Composite storm impact study",
        inputs=[InputSpec("seed", "int", required=False, default=1,
                          minimum=0, maximum=1e9),
                InputSpec("depth", "float", minimum=0.0, maximum=250.0)],
        output_node="summary",
        engine=engine,
    )


# -- composition -------------------------------------------------------------------


def test_composite_process_runs_workflow():
    process = make_composite()
    outputs = process.execute(process.validate({"depth": 80.0}))
    assert outputs["peak"] > 0
    assert outputs["provenance"]["workflow"] == "storm-study"
    assert outputs["provenance"]["stages"] == ["weather", "model", "summary"]
    assert outputs["provenance"]["cache_hits"] == 0


def test_composite_process_inherits_workflow_cache():
    engine = WorkflowEngine()
    process = make_composite(engine)
    first = process.execute(process.validate({"depth": 80.0}))
    second = process.execute(process.validate({"depth": 80.0}))
    assert second["provenance"]["cache_hits"] == 3
    assert second["peak"] == first["peak"]
    tweaked = process.execute(process.validate({"depth": 20.0}))
    assert tweaked["peak"] < first["peak"]


def test_composite_validates_like_any_wps_process():
    process = make_composite()
    from repro.services import HttpError
    with pytest.raises(HttpError):
        process.validate({})           # depth required
    with pytest.raises(HttpError):
        process.validate({"depth": 9999.0})


def test_composite_rejects_unknown_output_node():
    with pytest.raises(ValueError):
        compose_wps_process(storm_workflow(), "x", "X", [], "nonexistent")


def test_composite_deployable_behind_wps(tmp_path):
    """The composed process is served exactly like a native one."""
    from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
    from repro.services import Network, WpsService
    from repro.sim import Simulator

    sim = Simulator()
    network = Network(sim)
    store = BlobStore(sim)
    service = WpsService(sim, "composites", store.create_container("status"))
    service.add_process(make_composite())
    image = MachineImage(image_id="i", name="c", kind=ImageKind.GENERIC)
    instance = Instance(sim, "os-0", "openstack", image,
                        Flavor("m", 2, 4096, 40))
    instance._mark_running()
    service.replica(instance).bind(network)

    reply = network.request(
        instance.address,
        HttpRequest("POST", "/v1/wps/processes/storm-impact-study/execute",
                    body={"inputs": {"depth": 70.0}}),
        timeout=120.0)
    sim.run()
    assert reply.value.ok
    assert reply.value.body["outputs"]["provenance"]["workflow"] == \
        "storm-study"


# -- admin console -----------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2, seed=9,
                           min_replicas=2)).bootstrap()
    evop.run_for(400.0)
    evop.rb.connect("admin-test-user", "left-morland")
    evop.run_for(30.0)
    return evop


def test_admin_status_snapshot(deployment):
    console = AdminConsole(deployment)
    status = console.status()
    assert status["instances"]["private"] >= 2
    assert status["sessions"]["active"] == 1
    assert not status["cloudbursting"]
    service = status["services"][0]
    assert service["name"] == "left-morland"
    assert len(service["replicas"]) >= 2
    for replica in service["replicas"]:
        assert replica["state"] == "running"
        assert replica["verdict"] == "healthy"
        assert 0.0 <= replica["cpu"] <= 1.0
    assert status["cost"]["total"] > 0
    assert "topmodel-morland" in status["models"]
    assert status["registry"]


def test_admin_unhealthy_list_and_render(deployment):
    console = AdminConsole(deployment)
    assert console.unhealthy_replicas() == []
    text = console.render()
    assert "EVOp estate" in text
    assert "left-morland" in text
    assert "verdict=healthy" in text


def test_admin_sees_fault(deployment):
    victim = deployment.lb.service("left-morland").serving()[0]
    deployment.injector.crash(victim)
    console = AdminConsole(deployment)
    unhealthy = console.unhealthy_replicas()
    # the dead replica shows until the LB's next sweep retires it
    assert any(entry["verdict"] == "dead" for entry in unhealthy) or \
        victim not in deployment.lb.service("left-morland").replicas
    deployment.run_for(120.0)
    status = console.status()
    assert status["faults"]["detected"] >= 1
