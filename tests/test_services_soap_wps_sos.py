"""Unit tests for the SOAP baseline and the OGC WPS/SOS services."""

import pytest

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.services import (
    HttpRequest,
    Network,
    Observation,
    RequestTimeout,
    SensorDescription,
    ServiceRecord,
    ServiceRegistry,
    SoapClient,
    SoapFault,
    SoapServer,
    SosService,
    InputSpec,
    ProcessDescription,
    WpsProcess,
    WpsService,
)
from repro.sim import Simulator


class InMemoryObservationSource:
    """An SOS observation source without the data layer behind it."""

    def __init__(self):
        self._descriptions = {}
        self._observations = {}

    def add_sensor(self, description):
        self._descriptions[description.procedure_id] = description
        self._observations.setdefault(description.procedure_id, [])

    def add_observation(self, observation):
        if observation.procedure_id not in self._descriptions:
            raise KeyError(observation.procedure_id)
        self._observations[observation.procedure_id].append(observation)

    def procedures(self):
        return sorted(self._descriptions)

    def describe(self, procedure_id):
        return self._descriptions[procedure_id]

    def observations(self, procedure_id, begin, end):
        return sorted((obs for obs in self._observations[procedure_id]
                       if begin <= obs.time <= end),
                      key=lambda obs: obs.time)


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def network(sim):
    return Network(sim)


def make_instance(sim, instance_id="os-0000", vcpus=2):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("f", vcpus, 2048, 20))
    inst._mark_running()
    return inst


def roundtrip(sim, network, address, req, timeout=60.0):
    reply = network.request(address, req, timeout=timeout)
    sim.run()
    return reply.value


# -- SOAP ---------------------------------------------------------------------


def make_soap(sim, network, instance):
    server = SoapServer(sim, "legacy-gis", instance).bind(network)
    server.operation("set_region",
                     lambda session, payload: session.state.update(region=payload)
                     or {"ok": True})
    server.operation("get_region",
                     lambda session, payload: {"region": session.state.get("region")})
    return server


def test_soap_session_keeps_state_between_calls(sim, network):
    instance = make_instance(sim)
    server = make_soap(sim, network, instance)
    client = SoapClient(network, instance.address)

    begin = roundtrip(sim, network, instance.address,
                      HttpRequest("POST", "/soap/begin", body={"op": "begin"}))
    client.session_id = begin.body["session_id"]
    assert len(server._sessions) == 1

    reply = client.call("set_region", payload="eden")
    sim.run()
    assert reply.value.ok
    reply = client.call("get_region")
    sim.run()
    assert reply.value.body == {"region": "eden"}


def test_soap_unknown_session_faults(sim, network):
    instance = make_instance(sim)
    make_soap(sim, network, instance)
    client = SoapClient(network, instance.address)
    client.session_id = "soap-nope"
    reply = client.call("get_region")
    sim.run()
    assert reply.value.status == 500
    assert isinstance(reply.value.body, SoapFault)
    assert reply.value.body.code == "Client.NoSuchSession"


def test_soap_end_releases_session(sim, network):
    instance = make_instance(sim)
    server = make_soap(sim, network, instance)
    client = SoapClient(network, instance.address)
    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]
    done = client.call("end")
    sim.run()
    assert done.value.ok
    assert len(server._sessions) == 0


def test_soap_sessions_lost_when_server_dies(sim, network):
    instance = make_instance(sim)
    server = make_soap(sim, network, instance)
    client = SoapClient(network, instance.address)
    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]
    assert len(server._sessions) == 1
    instance._mark_failed("crash")
    reply = client.call("get_region", timeout=5.0)
    sim.run()
    # connection refused — the conversational state is simply gone
    assert not hasattr(reply.value, "status")


def test_soap_envelope_heavier_than_rest(sim, network):
    instance = make_instance(sim)
    make_soap(sim, network, instance)
    client = SoapClient(network, instance.address)
    client.call("begin")
    sim.run()
    soap_bytes = instance.net_bytes_in
    rest_request = HttpRequest("POST", "/soap/begin", body={"op": "begin"})
    assert soap_bytes > rest_request.wire_bytes()


# -- WPS ---------------------------------------------------------------------


def make_wps(sim):
    store = BlobStore(sim)
    service = WpsService(sim, "hydrology", store.create_container("wps-status"))
    description = ProcessDescription(
        identifier="double",
        title="Doubler",
        inputs=[InputSpec("x", "float", minimum=0.0, maximum=100.0),
                InputSpec("scale", "float", required=False, default=2.0)],
        outputs=["y"],
    )
    service.add_process(WpsProcess(
        description,
        run=lambda inputs: {"y": inputs["x"] * inputs["scale"]},
        cost=lambda inputs: 4.0,
    ))
    return service


def test_wps_get_capabilities_lists_processes(sim, network):
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address, HttpRequest("GET", "/v1/wps"))
    assert reply.body["service"] == "WPS"
    assert reply.body["processes"][0]["identifier"] == "double"


def test_wps_describe_process(sim, network):
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address,
                      HttpRequest("GET", "/v1/wps/processes/double"))
    doc = reply.body
    assert doc["identifier"] == "double"
    assert doc["inputs"][0]["name"] == "x"
    assert doc["outputs"] == ["y"]


def test_wps_describe_unknown_process_404(sim, network):
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address,
                      HttpRequest("GET", "/v1/wps/processes/nope"))
    assert reply.status == 404


def test_wps_execute_sync(sim, network):
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address,
                      HttpRequest("POST", "/v1/wps/processes/double/execute",
                                  body={"inputs": {"x": 21.0}}))
    assert reply.ok
    assert reply.body["outputs"] == {"y": 42.0}
    assert sim.now >= 4.0  # the model run was charged


def test_wps_execute_validates_inputs(sim, network):
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    missing = roundtrip(sim, network, instance.address,
                        HttpRequest("POST", "/v1/wps/processes/double/execute",
                                    body={"inputs": {}}))
    assert missing.status == 400
    out_of_range = roundtrip(sim, network, instance.address,
                             HttpRequest("POST", "/v1/wps/processes/double/execute",
                                         body={"inputs": {"x": 1000.0}}))
    assert out_of_range.status == 400
    unknown = roundtrip(sim, network, instance.address,
                        HttpRequest("POST", "/v1/wps/processes/double/execute",
                                    body={"inputs": {"x": 1.0, "bogus": 2}}))
    assert unknown.status == 400


def test_wps_execute_async_and_poll_status(sim, network):
    service = make_wps(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    accepted = roundtrip(sim, network, instance.address,
                         HttpRequest("POST", "/v1/wps/processes/double/execute",
                                     body={"inputs": {"x": 5.0}, "mode": "async"}))
    # run() above drained everything, so the job already finished; check doc
    assert accepted.status == 202
    location = accepted.body["statusLocation"]
    status = roundtrip(sim, network, instance.address,
                       HttpRequest("GET", location))
    assert status.body["status"] == "succeeded"
    assert status.body["outputs"] == {"y": 10.0}


def test_wps_async_status_readable_from_any_replica(sim, network):
    service = make_wps(sim)
    a = make_instance(sim, "os-0001")
    b = make_instance(sim, "os-0002")
    service.replica(a).bind(network)
    service.replica(b).bind(network)
    accepted = roundtrip(sim, network, a.address,
                         HttpRequest("POST", "/v1/wps/processes/double/execute",
                                     body={"inputs": {"x": 5.0}, "mode": "async"}))
    status = roundtrip(sim, network, b.address,
                       HttpRequest("GET", accepted.body["statusLocation"]))
    assert status.body["status"] == "succeeded"


def test_wps_async_failure_recorded(sim, network):
    store = BlobStore(sim)
    service = WpsService(sim, "h", store.create_container("wps-status"))

    def explode(inputs):
        raise RuntimeError("model diverged")

    service.add_process(WpsProcess(
        ProcessDescription(identifier="bad", title="Bad"),
        run=explode, cost=lambda i: 1.0))
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    accepted = roundtrip(sim, network, instance.address,
                         HttpRequest("POST", "/v1/wps/processes/bad/execute",
                                     body={"mode": "async"}))
    status = roundtrip(sim, network, instance.address,
                       HttpRequest("GET", accepted.body["statusLocation"]))
    assert status.body["status"] == "failed"
    assert "diverged" in status.body["error"]


def test_wps_duplicate_process_rejected(sim):
    service = make_wps(sim)
    with pytest.raises(ValueError):
        service.add_process(WpsProcess(
            ProcessDescription(identifier="double", title="dup"),
            run=lambda i: {}, cost=lambda i: 1.0))


# -- SOS ---------------------------------------------------------------------


def make_sos(sim):
    source = InMemoryObservationSource()
    source.add_sensor(SensorDescription(
        procedure_id="morland-rain-1", observed_property="rainfall",
        units="mm", latitude=54.6, longitude=-2.6, catchment="morland"))
    for t, v in ((0.0, 0.2), (3600.0, 1.4), (7200.0, 0.0)):
        source.add_observation(Observation("morland-rain-1", "rainfall",
                                           t, v, "mm"))
    return SosService(sim, "sensors", source)


def test_sos_capabilities_lists_offerings(sim, network):
    service = make_sos(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address, HttpRequest("GET", "/v1/sos"))
    assert reply.body["offerings"] == [{
        "procedure": "morland-rain-1", "observedProperty": "rainfall",
        "catchment": "morland"}]


def test_sos_describe_sensor(sim, network):
    service = make_sos(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address,
                      HttpRequest("GET", "/v1/sos/sensors/morland-rain-1"))
    assert reply.body["uom"] == "mm"
    assert reply.body["position"]["lat"] == 54.6


def test_sos_get_observation_with_temporal_filter(sim, network):
    service = make_sos(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address,
                      HttpRequest("GET", "/v1/sos/observations/morland-rain-1",
                                  query={"begin": "1000", "end": "7000"}))
    values = [obs["value"] for obs in reply.body["observations"]]
    assert values == [1.4]


def test_sos_unknown_procedure_404(sim, network):
    service = make_sos(sim)
    instance = make_instance(sim)
    service.replica(instance).bind(network)
    reply = roundtrip(sim, network, instance.address,
                      HttpRequest("GET", "/v1/sos/sensors/nope"))
    assert reply.status == 404


# -- registry -------------------------------------------------------------------


def test_registry_register_lookup_deregister():
    registry = ServiceRegistry()
    registry.register(ServiceRecord("left-model", "wps", "a.openstack.evop",
                                    standard="OGC WPS 1.0.0"))
    registry.register(ServiceRecord("left-model", "wps", "b.aws.evop"))
    registry.register(ServiceRecord("sensors", "sos", "c.openstack.evop"))

    assert len(registry.lookup("left-model")) == 2
    assert registry.first_address("left-model") == "a.openstack.evop"
    assert [r.name for r in registry.by_type("sos")] == ["sensors"]
    assert registry.deregister("left-model", "a.openstack.evop")
    assert registry.first_address("left-model") == "b.aws.evop"
    assert not registry.deregister("left-model", "a.openstack.evop")


def test_registry_rejects_duplicates():
    registry = ServiceRegistry()
    registry.register(ServiceRecord("x", "rest", "addr"))
    with pytest.raises(ValueError):
        registry.register(ServiceRecord("x", "rest", "addr"))


def test_registry_find_predicate():
    registry = ServiceRegistry()
    registry.register(ServiceRecord("a", "wps", "x", metadata={"model": "topmodel"}))
    registry.register(ServiceRecord("b", "wps", "y", metadata={"model": "fuse"}))
    found = registry.find(lambda r: r.metadata.get("model") == "fuse")
    assert [r.name for r in found] == ["b"]
