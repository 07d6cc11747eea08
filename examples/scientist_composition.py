"""The scientist persona: upload data, compose a service, run it anywhere.

Section III-A's scientist wants to "find or upload data, use it to run
predictive models, modify models to their requirements, and compose
workflows".  This script walks that whole journey:

1. upload a rain-gauge series through the REST upload endpoint;
2. QC the uploaded data;
3. compose a storm-impact workflow and publish it as a *new* WPS
   process;
4. execute the composite over REST and over the OGC SOAP binding —
   same deployment, same accounting;
5. show the replay cache making the second execution free.

Run with::

    python examples/scientist_composition.py
"""

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.data import (
    AssetCatalog,
    DataWarehouse,
    STUDY_CATCHMENTS,
    quality_control,
)
from repro.hydrology import HydrographAnalysis, TopmodelParameters
from repro.portal import UploadService
from repro.services import (
    HttpRequest,
    InputSpec,
    Network,
    SoapClient,
    SoapWpsBinding,
    WpsService,
)
from repro.sim import Simulator
from repro.workflow import Workflow, WorkflowNode, compose_wps_process


def main() -> None:
    sim = Simulator()
    network = Network(sim)
    warehouse = DataWarehouse(BlobStore(sim))
    catalog = AssetCatalog()
    morland = STUDY_CATCHMENTS["morland"]

    host = Instance(sim, "os-0000", "openstack",
                    MachineImage(image_id="i", name="svc",
                                 kind=ImageKind.STREAMLINED,
                                 run_speed_factor=1.25),
                    Flavor("m", 2, 4096, 40))
    host._mark_running()

    # -- 1. upload -------------------------------------------------------------
    UploadService(sim, warehouse, catalog).replica(host).bind(network)
    # a realistic field record: variable drizzle, the storm, a decaying
    # tail — plus one spike the logger glitched
    gauge_values = ([round(0.1 + 0.07 * (i % 5), 2) for i in range(24)]
                    + [6, 11, 16, 13, 8, 4, 2]
                    + [round(max(0.0, 0.8 - 0.05 * i) + 0.03 * (i % 4), 2)
                       for i in range(120)])
    gauge_values[90] = 55.0  # the glitch
    reply = network.request(host.address, HttpRequest("POST", "/v1/uploads", body={
        "owner": "dr-rivers", "name": "field-campaign-2013",
        "dt": 3600.0, "values": gauge_values, "units": "mm/h",
        "latitude": morland.latitude, "longitude": morland.longitude,
        "catchment": "morland",
    }))
    sim.run()
    dataset_id = reply.value.body["datasetId"]
    print(f"1. uploaded {reply.value.body['samples']} samples as {dataset_id}")

    # -- 2. QC -----------------------------------------------------------------
    raw = warehouse.get_series(dataset_id)
    cleaned, report = quality_control(raw, "rainfall")
    print(f"2. QC: {report.count()} samples flagged "
          f"({report.flagged_fraction():.1%}); usable={report.usable()}")

    # -- 3. compose ---------------------------------------------------------------
    workflow = Workflow("my-storm-study")
    workflow.add(WorkflowNode(
        "fetch", lambda p, u: warehouse.get_series(p["dataset"]),
        params_used=("dataset",)))
    workflow.add(WorkflowNode(
        "model",
        lambda p, u: morland.topmodel().run(
            u["fetch"], parameters=TopmodelParameters(q0_mm_h=0.3)
            .with_updates(m=float(p["m"]))).flow,
        depends_on=("fetch",), params_used=("m",)))
    workflow.add(WorkflowNode(
        "analyse",
        lambda p, u: HydrographAnalysis(u["model"]).summary(
            threshold=morland.flood_threshold_mm_h),
        depends_on=("model",)))
    composite = compose_wps_process(
        workflow, identifier="my-storm-study", title="Dr Rivers' storm study",
        inputs=[InputSpec("dataset", "string"),
                InputSpec("m", "float", required=False, default=15.0,
                          minimum=5.0, maximum=60.0)],
        output_node="analyse")
    wps = WpsService(sim, "community",
                     BlobStore(sim).create_container("status"))
    wps.add_process(composite)
    wps.replica(host).bind(network)
    print(f"3. composed workflow published as WPS process "
          f"'{composite.identifier}'")

    # -- 4a. execute over REST ---------------------------------------------------------
    rest_reply = network.request(
        host.address,
        HttpRequest("POST", "/v1/wps/processes/my-storm-study/execute",
                    body={"inputs": {"dataset": dataset_id}}),
        timeout=120.0)
    sim.run()
    outputs = rest_reply.value.body["outputs"]
    print(f"4a. REST execute: peak={outputs['peak']:.2f} mm/h, "
          f"{outputs['events']} flood event(s), "
          f"cache hits={outputs['provenance']['cache_hits']}")

    # -- 4b. execute over the OGC SOAP binding -----------------------------------------
    soap_host = Instance(sim, "os-0001", "openstack", host.image,
                         host.flavor)
    soap_host._mark_running()
    SoapWpsBinding(sim, wps, soap_host).bind(network)
    client = SoapClient(network, soap_host.address)
    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]
    soap_reply = client.call("Execute", payload={
        "identifier": "my-storm-study",
        "inputs": {"dataset": dataset_id}}, timeout=120.0)
    sim.run()
    soap_outputs = soap_reply.value.body["outputs"]
    print(f"4b. SOAP execute: status={soap_reply.value.body['status']}, "
          f"peak={soap_outputs['peak']:.2f} mm/h, "
          f"cache hits={soap_outputs['provenance']['cache_hits']} "
          f"(the composite's stages were already cached)")

    # -- 5. replay economics -------------------------------------------------------------
    tweak = network.request(
        host.address,
        HttpRequest("POST", "/v1/wps/processes/my-storm-study/execute",
                    body={"inputs": {"dataset": dataset_id, "m": 35.0}}),
        timeout=120.0)
    sim.run()
    tweak_out = tweak.value.body["outputs"]
    hits = tweak_out["provenance"]["cache_hits"]
    print(f"5. tweak m=35: peak={tweak_out['peak']:.2f} mm/h, "
          f"cache hits={hits} (only the model stage re-ran)")


if __name__ == "__main__":
    main()
