"""Tests for the extension surface: SOAP-OGC binding, uploads,
cloud-executed workflows, the national outlook."""

import hashlib

import pytest

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.core import Evop, EvopConfig
from repro.data import AssetCatalog, AssetOrigin, DataWarehouse, STUDY_CATCHMENTS
from repro.data.weather import DesignStorm
from repro.modellib import make_topmodel_process
from repro.portal import FloodStatus, NationalOutlook, UploadService
from repro.services import (
    HttpRequest,
    Network,
    SoapClient,
    SoapWpsBinding,
    WpsService,
)
from repro.sim import RandomStreams, Simulator
from repro.workflow import (
    CloudWorkflowEngine,
    ServiceCall,
    Workflow,
    WorkflowNode,
    service_node,
)


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def network(sim):
    return Network(sim)


def make_instance(sim, instance_id="os-0000"):
    image = MachineImage(image_id="img-0", name="svc",
                         kind=ImageKind.STREAMLINED, run_speed_factor=1.25)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("m", 2, 4096, 40))
    inst._mark_running()
    return inst


def make_wps(sim, warehouse=None):
    store = BlobStore(sim)
    service = WpsService(sim, "left-morland",
                         store.create_container("status"))
    service.add_process(make_topmodel_process(
        STUDY_CATCHMENTS["morland"], warehouse=warehouse))
    return service


# -- SOAP binding for WPS ---------------------------------------------------------


def test_soap_wps_capabilities_and_describe(sim, network):
    wps = make_wps(sim)
    instance = make_instance(sim)
    SoapWpsBinding(sim, wps, instance).bind(network)
    client = SoapClient(network, instance.address)

    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]

    caps = client.call("GetCapabilities")
    sim.run()
    assert caps.value.ok
    assert caps.value.body["binding"] == "SOAP"
    assert "topmodel-morland" in caps.value.body["processes"]

    describe = client.call("DescribeProcess",
                           payload={"identifier": "topmodel-morland"})
    sim.run()
    assert describe.value.body["identifier"] == "topmodel-morland"


def test_soap_wps_execute_charges_instance(sim, network):
    wps = make_wps(sim)
    instance = make_instance(sim)
    SoapWpsBinding(sim, wps, instance).bind(network)
    client = SoapClient(network, instance.address)
    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]

    execute = client.call("Execute", payload={
        "identifier": "topmodel-morland",
        "inputs": {"duration_hours": 72, "scenario": "compaction"}},
        timeout=120.0)
    sim.run()
    response = execute.value
    assert response.ok
    assert response.body["status"] == "ProcessSucceeded"
    assert response.body["outputs"]["scenario"] == "compaction"
    # the model run was charged to the instance as CPU time
    assert instance.cpu_busy_seconds > 0.5


def test_soap_wps_execute_validates(sim, network):
    wps = make_wps(sim)
    instance = make_instance(sim)
    SoapWpsBinding(sim, wps, instance).bind(network)
    client = SoapClient(network, instance.address)
    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]
    bad = client.call("Execute", payload={"identifier": "nope"})
    sim.run()
    assert bad.value.status == 500  # SOAP fault


# -- uploads ------------------------------------------------------------------------


def upload_body(**overrides):
    body = {
        "owner": "farmer-jo",
        "name": "my-gauge-2013",
        "dt": 3600.0,
        "values": [0.0, 2.0, 5.0, 1.0] + [0.1] * 68,
        "units": "mm/h",
        "latitude": 54.59, "longitude": -2.61, "catchment": "morland",
    }
    body.update(overrides)
    return body


def test_upload_lands_in_warehouse_and_catalog(sim, network):
    warehouse = DataWarehouse(BlobStore(sim))
    catalog = AssetCatalog()
    service = UploadService(sim, warehouse, catalog)
    instance = make_instance(sim)
    service.replica(instance).bind(network)

    reply = network.request(instance.address,
                            HttpRequest("POST", "/v1/uploads",
                                        body=upload_body()))
    sim.run()
    assert reply.value.status == 201
    dataset_id = reply.value.body["datasetId"]
    assert dataset_id == "user/farmer-jo/my-gauge-2013"
    assert warehouse.exists(dataset_id)
    assets = catalog.by_origin(AssetOrigin.USER_PROVIDED)
    assert len(assets) == 1
    assert assets[0].access == dataset_id

    describe = network.request(
        instance.address,
        HttpRequest("GET", f"/v1/uploads/{dataset_id.replace('/', '__')}"))
    sim.run()
    assert describe.value.ok
    assert "farmer-jo" in describe.value.body["provenance"]


@pytest.mark.parametrize("mutation,expected", [
    ({"owner": ""}, "missing field"),
    ({"values": [1.0]}, "at least two"),
    ({"values": [1.0, -2.0]}, "non-negative"),
    ({"values": ["a", "b"]}, "numeric"),
    ({"dt": -5}, "positive"),
    ({"name": "has/slash"}, "must not contain"),
])
def test_upload_validation(sim, network, mutation, expected):
    service = UploadService(sim, DataWarehouse(BlobStore(sim)),
                            AssetCatalog())
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = network.request(instance.address,
                            HttpRequest("POST", "/v1/uploads",
                                        body=upload_body(**mutation)))
    sim.run()
    assert reply.value.status == 400
    assert expected in reply.value.body["detail"]
    assert reply.value.body["retryable"] is False


def test_uploaded_rainfall_drives_model_run(sim, network):
    """The full user-provided-data path: upload, then Execute against it."""
    warehouse = DataWarehouse(BlobStore(sim))
    catalog = AssetCatalog()
    instance = make_instance(sim)
    uploads = UploadService(sim, warehouse, catalog).replica(instance)
    wps_instance = make_instance(sim, "os-0001")
    wps = make_wps(sim, warehouse=warehouse)
    wps.replica(wps_instance).bind(network)
    uploads.bind(network)  # NB: separate addresses

    big_storm = upload_body(values=[0.2] * 24 + [10, 15, 20, 12, 6]
                            + [0.1] * 96)
    upload = network.request(instance.address,
                             HttpRequest("POST", "/v1/uploads", body=big_storm))
    sim.run()
    dataset_id = upload.value.body["datasetId"]

    run = network.request(
        wps_instance.address,
        HttpRequest("POST", "/v1/wps/processes/topmodel-morland/execute",
                    body={"inputs": {"rainfall_dataset": dataset_id}}),
        timeout=120.0)
    sim.run()
    assert run.value.ok
    outputs = run.value.body["outputs"]
    assert len(outputs["hydrograph_mm_h"]) == len(big_storm["values"])
    assert outputs["peak_mm_h"] > 1.0


def test_rainfall_dataset_without_warehouse_errors(sim, network):
    wps = make_wps(sim, warehouse=None)
    instance = make_instance(sim)
    wps.replica(instance).bind(network)
    reply = network.request(
        instance.address,
        HttpRequest("POST", "/v1/wps/processes/topmodel-morland/execute",
                    body={"inputs": {"rainfall_dataset": "user/x/y"}}),
        timeout=120.0)
    sim.run()
    assert reply.value.status == 500
    assert "no warehouse" in str(reply.value.body)


# -- cloud workflow engine -------------------------------------------------------------


def build_cloud_workflow(address_of):
    workflow = Workflow("cloud-storm-study")
    workflow.add(WorkflowNode(
        "choose-storm",
        lambda p, u: {"storm_depth_mm": p["depth"], "duration_hours": 96},
        params_used=("depth",)))
    workflow.add(service_node(
        "run-model",
        ServiceCall(
            process_id="topmodel-morland",
            address_of=address_of,
            build_inputs=lambda p, u: u["choose-storm"],
        ),
        depends_on=("choose-storm",)))
    workflow.add(WorkflowNode(
        "verdict",
        lambda p, u: {"floods": u["run-model"]["threshold_exceeded"],
                      "peak": u["run-model"]["peak_mm_h"]},
        depends_on=("run-model",)))
    return workflow


def test_cloud_workflow_executes_over_network(sim, network):
    wps = make_wps(sim)
    instance = make_instance(sim)
    wps.replica(instance).bind(network)
    engine = CloudWorkflowEngine(sim, network)
    workflow = build_cloud_workflow(lambda: instance.address)

    done = engine.run(workflow, {"depth": 90.0})
    sim.run()
    record = done.value
    assert record is not None
    assert record.outputs["verdict"]["peak"] > 0
    # the model really ran on the instance
    assert instance.jobs_completed >= 1

    # replay: no new service call hits the instance
    jobs_before = instance.jobs_completed
    replay = engine.run(workflow, {"depth": 90.0})
    sim.run()
    assert replay.value.cache_hits() == 3
    assert instance.jobs_completed == jobs_before

    # tweak: only the downstream stages re-run, one new service call
    tweaked = engine.run(workflow, {"depth": 20.0})
    sim.run()
    assert tweaked.value.recomputed() == ["choose-storm", "run-model",
                                          "verdict"]
    assert tweaked.value.outputs["verdict"]["peak"] < \
        record.outputs["verdict"]["peak"]


def test_cloud_workflow_fails_gracefully_on_dead_service(sim, network):
    wps = make_wps(sim)
    instance = make_instance(sim)
    wps.replica(instance).bind(network)
    instance._mark_failed("crash")
    engine = CloudWorkflowEngine(sim, network)
    done = engine.run(build_cloud_workflow(lambda: instance.address),
                      {"depth": 50.0})
    sim.run()
    assert done.value is None
    # the partial provenance was still recorded
    assert engine.runs()
    assert engine.runs()[0].stages[0].node_id == "choose-storm"


# -- national outlook ---------------------------------------------------------------------


def test_national_outlook_covers_all_catchments():
    outlook = NationalOutlook(streams=RandomStreams(17), horizon_hours=96)
    storm = DesignStorm(start_hour=24, duration_hours=10,
                        total_depth_mm=80.0)
    results = outlook.assess(storm=storm)
    assert len(results) == 4
    names = {o.catchment.name for o in results}
    assert names == {"eden", "morland", "tarland", "machynlleth"}
    for entry in results:
        assert entry.peak_mm_h > 0
        assert entry.peak_discharge_m3s > 0
        assert entry.status in FloodStatus


def test_national_outlook_storm_raises_severity():
    quiet = NationalOutlook(streams=RandomStreams(17), horizon_hours=96)
    stormy = NationalOutlook(streams=RandomStreams(17), horizon_hours=96)
    calm = quiet.assess(storm=None)
    wet = stormy.assess(storm=DesignStorm(24, 10, 120.0))
    calm_peaks = {o.catchment.name: o.peak_mm_h for o in calm}
    wet_peaks = {o.catchment.name: o.peak_mm_h for o in wet}
    assert all(wet_peaks[name] > calm_peaks[name] for name in calm_peaks)
    severity = {FloodStatus.FLOOD: 0, FloodStatus.ALERT: 1,
                FloodStatus.NORMAL: 2}
    worst_wet = min(severity[o.status] for o in wet)
    worst_calm = min(severity[o.status] for o in calm)
    assert worst_wet <= worst_calm


def test_national_dashboard_sorted_and_chartable():
    outlook = NationalOutlook(streams=RandomStreams(17), horizon_hours=96)
    results = outlook.assess(storm=DesignStorm(24, 10, 100.0))
    rows = NationalOutlook.dashboard_rows(results)
    assert len(rows) == 4
    statuses = [row[-1] for row in rows]
    order = {"FLOOD": 0, "ALERT": 1, "NORMAL": 2}
    assert [order[s] for s in statuses] == sorted(order[s] for s in statuses)
    chart = NationalOutlook.chart(results)
    assert len(chart.series) == 4
    assert chart.annotations


def test_flood_status_classification_boundaries():
    assert FloodStatus.classify(0.4, 2.0) == FloodStatus.NORMAL
    assert FloodStatus.classify(1.0, 2.0) == FloodStatus.ALERT
    assert FloodStatus.classify(2.1, 2.0) == FloodStatus.FLOOD


# -- end-to-end through the facade ----------------------------------------------------------


def test_evop_supports_uploaded_dataset_runs():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2)).bootstrap()
    evop.run_for(300.0)
    # upload directly into the deployment's warehouse (the REST upload
    # path is exercised above; here we check the WPS wiring end to end)
    from repro.hydrology import TimeSeries
    series = TimeSeries(0, 3600, [0.2] * 24 + [12, 18, 10] + [0.1] * 69,
                        units="mm/h", name="user-rain")
    evop.warehouse.put_series("user/alice/rain", series, provenance="alice")

    address = evop.registry.first_address("left-morland")
    reply = evop.network.request(
        address,
        HttpRequest("POST", "/v1/wps/processes/topmodel-morland/execute",
                    body={"inputs": {"rainfall_dataset": "user/alice/rain"}}),
        timeout=300.0)
    evop.run_for(120.0)
    assert reply.value.ok
    assert len(reply.value.body["outputs"]["hydrograph_mm_h"]) == len(series)


def test_describe_and_download_carry_etags(sim, network):
    warehouse = DataWarehouse(BlobStore(sim))
    catalog = AssetCatalog()
    instance = make_instance(sim)
    UploadService(sim, warehouse, catalog).replica(instance).bind(network)

    upload = network.request(instance.address,
                             HttpRequest("POST", "/v1/uploads",
                                         body=upload_body()))
    sim.run()
    dataset_id = upload.value.body["datasetId"].replace("/", "__")

    describe = network.request(
        instance.address, HttpRequest("GET", f"/v1/uploads/{dataset_id}"))
    download = network.request(
        instance.address, HttpRequest("GET", f"/v1/uploads/{dataset_id}/data"))
    sim.run()
    assert describe.value.status == 200
    assert describe.value.headers["ETag"]
    assert download.value.status == 200
    assert download.value.headers["ETag"] == describe.value.headers["ETag"]
    assert download.value.body["values"][1] == 2.0


def test_if_none_match_revalidates_with_304(sim, network):
    warehouse = DataWarehouse(BlobStore(sim))
    catalog = AssetCatalog()
    instance = make_instance(sim)
    UploadService(sim, warehouse, catalog).replica(instance).bind(network)

    upload = network.request(instance.address,
                             HttpRequest("POST", "/v1/uploads",
                                         body=upload_body()))
    sim.run()
    dataset_id = upload.value.body["datasetId"].replace("/", "__")

    first = network.request(
        instance.address, HttpRequest("GET", f"/v1/uploads/{dataset_id}/data"))
    sim.run()
    etag = first.value.headers["ETag"]

    # the widget's poll: replaying the etag yields a bodyless 304
    revalidated = network.request(
        instance.address,
        HttpRequest("GET", f"/v1/uploads/{dataset_id}/data",
                    headers={"If-None-Match": etag}))
    sim.run()
    assert revalidated.value.status == 304
    assert revalidated.value.body is None
    assert revalidated.value.headers["ETag"] == etag

    # content changed: the stale etag misses and the new body flows
    body = upload_body(values=[0.0, 9.0, 9.0, 9.0] + [0.1] * 68)
    network.request(instance.address,
                    HttpRequest("POST", "/v1/uploads", body=body))
    sim.run()
    changed = network.request(
        instance.address,
        HttpRequest("GET", f"/v1/uploads/{dataset_id}/data",
                    headers={"If-None-Match": etag}))
    sim.run()
    assert changed.value.status == 200
    assert changed.value.headers["ETag"] != etag
    assert changed.value.body["values"][1] == 9.0


def test_wps_status_poll_revalidates_with_304(sim, network):
    wps = make_wps(sim)
    instance = make_instance(sim)
    wps.replica(instance).bind(network)

    accepted = network.request(
        instance.address,
        HttpRequest("POST", "/v1/wps/processes/topmodel-morland/execute",
                    body={"inputs": {"duration_hours": 48},
                          "mode": "async"}))
    sim.run()           # drain: the async job settles the status document
    location = accepted.value.body["statusLocation"]

    poll = network.request(instance.address, HttpRequest("GET", location))
    sim.run()
    assert poll.value.status == 200
    assert poll.value.body["status"] == "succeeded"
    etag = poll.value.headers["ETag"]

    # the poller's next round-trip replays the etag: bodyless 304
    repoll = network.request(
        instance.address,
        HttpRequest("GET", location, headers={"If-None-Match": etag}))
    sim.run()
    assert repoll.value.status == 304
    assert repoll.value.body is None
    assert repoll.value.headers["ETag"] == etag

    # a stale (or missing) validator still gets the full document
    stale = network.request(
        instance.address,
        HttpRequest("GET", location,
                    headers={"If-None-Match": "not-the-etag"}))
    sim.run()
    assert stale.value.status == 200
    assert stale.value.body["outputs"]
    # the validator is the hash of the stored status document, as when
    # ``put`` stamped it eagerly
    document = wps.status.read(location.rsplit("/", 1)[1])
    assert etag == hashlib.sha256(repr(document).encode()).hexdigest()[:16]
