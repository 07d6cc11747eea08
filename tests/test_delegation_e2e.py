"""End-to-end delegation: restricted upload, guarded download, open compute."""

import pytest

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.core import Evop, EvopConfig
from repro.portal import UploadService
from repro.services import HttpRequest


@pytest.fixture(scope="module")
def world():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2, seed=31)).bootstrap()
    evop.run_for(300.0)
    image = MachineImage(image_id="img-up", name="uploads",
                         kind=ImageKind.GENERIC)
    host = Instance(evop.sim, "os-up", "openstack", image,
                    Flavor("m", 2, 4096, 40))
    host._mark_running()
    uploads = UploadService(evop.sim, evop.warehouse, evop.catalog,
                            policy=evop.access)
    uploads.replica(host).bind(evop.network)

    reply = evop.network.request(host.address, HttpRequest(
        "POST", "/v1/uploads", body={
            "owner": "dr-rivers", "name": "embargoed-2013",
            "dt": 3600.0,
            "values": [0.2] * 24 + [9.0, 14.0, 7.0] + [0.1] * 69,
            "units": "mm/h", "catchment": "morland",
            "restricted": True,
        }))
    evop.run_for(10.0)
    assert reply.value.status == 201
    return evop, host, reply.value.body["datasetId"]


def download(evop, host, dataset_id, principal):
    headers = {"X-Principal": principal} if principal else {}
    reply = evop.network.request(host.address, HttpRequest(
        "GET", f"/v1/uploads/{dataset_id.replace('/', '__')}/data",
        headers=headers))
    evop.run_for(10.0)
    return reply.value


def test_owner_downloads_raw(world):
    evop, host, dataset_id = world
    response = download(evop, host, dataset_id, "dr-rivers")
    assert response.ok
    assert len(response.body["values"]) == 96


def test_stranger_gets_403(world):
    evop, host, dataset_id = world
    response = download(evop, host, dataset_id, "random-visitor")
    assert response.status == 403
    anonymous = download(evop, host, dataset_id, None)
    assert anonymous.status == 403


def test_stranger_can_still_run_model_on_restricted_data(world):
    """Delegated compute: derived products flow, raw custody doesn't."""
    evop, host, dataset_id = world
    address = evop.registry.first_address("left-morland")
    run = evop.network.request(address, HttpRequest(
        "POST", "/v1/wps/processes/topmodel-morland/execute",
        body={"inputs": {"rainfall_dataset": dataset_id}}),
        timeout=300.0)
    evop.run_for(120.0)
    assert run.value.ok
    outputs = run.value.body["outputs"]
    assert outputs["peak_mm_h"] > 0
    # the audit trail shows the model-runner read, strangers denied
    from repro.data import MODEL_RUNNER
    reads = [e for e in evop.access.audit_log
             if e["dataset"] == dataset_id]
    assert any(e["principal"] == MODEL_RUNNER and e["allowed"]
               for e in reads)
    assert any(e["principal"] == "random-visitor" and not e["allowed"]
               for e in reads)


def test_download_of_missing_dataset_404(world):
    evop, host, _dataset_id = world
    response = download(evop, host, "user/nobody/nothing", "dr-rivers")
    assert response.status == 404
