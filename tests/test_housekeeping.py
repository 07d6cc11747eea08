"""Tests for housekeeping APIs: execution purge, session pruning."""

import pytest

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.services import (
    HttpRequest,
    InputSpec,
    Network,
    ProcessDescription,
    WpsProcess,
    WpsService,
)
from repro.broker import SessionTable
from repro.sim import Simulator


def make_wps(sim):
    store = BlobStore(sim)
    service = WpsService(sim, "svc", store.create_container("status"))
    service.add_process(WpsProcess(
        ProcessDescription(identifier="double", title="Doubler",
                           inputs=[InputSpec("x", "float")]),
        run=lambda inputs: {"y": inputs["x"] * 2},
        cost=lambda inputs: 1.0))
    return service


def make_instance(sim):
    image = MachineImage(image_id="i", name="x", kind=ImageKind.GENERIC)
    inst = Instance(sim, "os-0", "openstack", image, Flavor("m", 2, 4096, 40))
    inst._mark_running()
    return inst


def test_purge_executions_drops_only_old_finished(sim=None):
    sim = Simulator()
    network = Network(sim)
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)

    # two executions early, one much later
    for x in (1.0, 2.0):
        network.request(instance.address, HttpRequest(
            "POST", "/v1/wps/processes/double/execute",
            body={"inputs": {"x": x}, "mode": "async"}))
    sim.run()
    sim.run(until=sim.now + 10_000.0)
    network.request(instance.address, HttpRequest(
        "POST", "/v1/wps/processes/double/execute",
        body={"inputs": {"x": 3.0}, "mode": "async"}))
    sim.run()

    assert len(service.status.list()) == 3
    removed = service.purge_executions(older_than_seconds=5_000.0)
    assert removed == 2
    remaining = service.status.list()
    assert len(remaining) == 1
    assert service.status.get(remaining[0]).payload["outputs"] == {"y": 6.0}


def test_purge_keeps_accepted_unfinished():
    sim = Simulator()
    service = make_wps(sim)
    # simulate an accepted-but-never-finished record
    service.status.put("exec-zombie", {"status": "accepted",
                                       "submitted_at": 0.0})
    sim.run(until=1_000_000.0)
    assert service.purge_executions(older_than_seconds=1.0) == 0
    assert service.status.exists("exec-zombie")


def test_prune_ended_sessions():
    sim = Simulator()
    table = SessionTable(sim)
    early = table.create("a")
    later = table.create("b")
    live = table.create("c")
    early.end()
    sim.run(until=10_000.0)
    later.end()
    assert table.prune_ended(older_than_seconds=5_000.0) == 1
    assert len(table.all()) == 2
    # pruning with no age drops every ended session, never live ones
    assert table.prune_ended() == 1
    assert table.all() == [live]
    with pytest.raises(KeyError):
        table.get(early.session_id)
