"""Edge-case tests across thinner corners of the codebase."""

import math

import pytest

from repro.cloud import (
    AwsCloud,
    BillingMeter,
    Flavor,
    ImageKind,
    Instance,
    Job,
    MachineImage,
    MEDIUM,
    MultiCloud,
    OpenStackCloud,
    PriceTable,
)
from repro.cloud.errors import CloudError
from repro.services import (
    ChannelClosed,
    HttpRequest,
    Network,
    PushGateway,
    RestApi,
    RestServer,
    SoapServer,
)
from repro.sim import Simulator, RandomStreams


@pytest.fixture()
def sim():
    return Simulator()


def running_instance(sim, vcpus=2, instance_id="os-0000"):
    image = MachineImage(image_id="img-0", name="x", kind=ImageKind.GENERIC)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("f", vcpus, 2048, 20))
    inst._mark_running()
    return inst


# -- flavors / images -----------------------------------------------------------


def test_flavor_validation():
    with pytest.raises(ValueError):
        Flavor("bad", vcpus=0, ram_mb=1, disk_gb=1)
    with pytest.raises(ValueError):
        Flavor("bad", vcpus=1, ram_mb=0, disk_gb=1)
    with pytest.raises(ValueError):
        Flavor("bad", vcpus=1, ram_mb=1, disk_gb=1, compute_speed=0)


# -- instance queue bound ----------------------------------------------------------


def test_bounded_queue_rejects_excess(sim):
    inst = running_instance(sim, vcpus=1)
    inst.max_queue = 2
    signals = [inst.submit(Job(cost=100.0)) for _ in range(5)]
    # 1 running + 2 queued admitted; 2 rejected immediately
    rejected = [s for s in signals if s.fired
                and not s.value.succeeded and s.value.error == "queue full"]
    assert len(rejected) == 2
    assert inst.load() == 3.0  # one running, two queued


def test_unbounded_queue_accepts_everything(sim):
    inst = running_instance(sim, vcpus=1)
    for _ in range(50):
        inst.submit(Job(cost=1.0))
    assert inst.load() == 50.0  # one running, 49 queued


def test_rest_responds_503_when_overloaded(sim):
    network = Network(sim)
    inst = running_instance(sim, vcpus=1)
    inst.max_queue = 1
    api = RestApi("x")
    api.get("/work", lambda req, p: {"ok": True}, cost=30.0)
    RestServer(sim, api, inst).bind(network)
    replies = [network.request(inst.address, HttpRequest("GET", "/v1/work"),
                               timeout=120.0) for _ in range(4)]
    sim.run()
    statuses = sorted(r.value.status for r in replies)
    assert statuses.count(503) == 2
    assert statuses.count(200) == 2


# -- billing open records --------------------------------------------------------


def test_billing_open_records_priced_to_now(sim):
    meter = BillingMeter(sim)
    meter.register_provider("aws", PriceTable({"medium": 3600.0}))  # $1/s
    cloud = AwsCloud(sim, meter=meter)
    image = MachineImage(image_id="i", name="x", kind=ImageKind.GENERIC,
                         size_gb=1.0)
    cloud.launch(image, MEDIUM)
    sim.run()  # boot
    booted = sim.now
    sim.run(until=booted + 100.0)
    # instance still running: cost accrues to "now"
    assert meter.cost_by_provider()["aws"] == pytest.approx(100.0)
    sim.run(until=booted + 200.0)
    assert meter.cost_by_provider()["aws"] == pytest.approx(200.0)


def test_billing_unknown_provider_costs_nothing(sim):
    meter = BillingMeter(sim)  # no price table registered
    cloud = AwsCloud(sim, meter=meter)
    image = MachineImage(image_id="i", name="x", kind=ImageKind.GENERIC)
    cloud.launch(image, MEDIUM)
    sim.run()
    sim.run(until=sim.now + 500.0)
    assert meter.cost_by_provider() == {"aws": 0.0}


# -- channels edge cases ------------------------------------------------------------


def test_push_to_blackholed_gateway_never_delivers(sim):
    inst = running_instance(sim)
    gateway = PushGateway(sim, inst)
    conn = gateway.connect("user")
    received = []
    conn.on_client_message(received.append)
    inst._blackhole()
    conn.push({"x": 1})
    sim.run(until=60.0)
    assert received == []


def test_push_after_close_raises_and_send_too(sim):
    gateway = PushGateway(sim, running_instance(sim))
    conn = gateway.connect("user")
    conn.close()
    conn.close()  # idempotent
    with pytest.raises(ChannelClosed):
        conn.send("anything")


def test_ping_loop_stops_when_instance_dies(sim):
    inst = running_instance(sim)
    gateway = PushGateway(sim, inst, ping_interval=10.0)
    gateway.connect("user")
    sim.run(until=35.0)
    count_before = gateway.metrics.counter("messages").value
    inst._mark_failed("crash")
    sim.run(until=200.0)
    assert gateway.metrics.counter("messages").value == count_before


# -- SOAP operation that raises ------------------------------------------------------


def test_soap_operation_exception_becomes_fault(sim):
    network = Network(sim)
    inst = running_instance(sim)
    server = SoapServer(sim, "svc", inst).bind(network)

    def explode(session, payload):
        raise RuntimeError("backend broke")

    server.operation("explode", explode)
    from repro.services import SoapClient
    client = SoapClient(network, inst.address)
    begin = client.call("begin")
    sim.run()
    client.session_id = begin.value.body["session_id"]
    reply = client.call("explode")
    sim.run()
    assert reply.value.status == 500
    assert "backend broke" in reply.value.body.reason


# -- multicloud without providers ----------------------------------------------------


def test_multicloud_no_providers_raises(sim):
    from repro.cloud import NodeTemplate
    multi = MultiCloud()
    image = MachineImage(image_id="i", name="x", kind=ImageKind.GENERIC)
    with pytest.raises(CloudError):
        multi.create_node(NodeTemplate(image, MEDIUM))
    with pytest.raises(CloudError):
        multi.compute("anywhere")
    with pytest.raises(CloudError):
        multi.blobstore("anywhere")


# -- degradation mid-flight stretches multiple jobs -----------------------------------


def test_degrade_stretches_all_running_jobs(sim):
    inst = running_instance(sim, vcpus=2)
    first = inst.submit(Job(cost=10.0))
    second = inst.submit(Job(cost=10.0))
    sim.schedule(5.0, inst._degrade, 0.5)
    sim.run()
    # 5s at speed 1 (half done) + 5 cost-units at 0.5 = 10s more
    assert first.value.finished_at == pytest.approx(15.0)
    assert second.value.finished_at == pytest.approx(15.0)


# -- provider boot determinism ---------------------------------------------------------


def test_boot_times_deterministic_per_seed(sim):
    image = MachineImage(image_id="i", name="x", kind=ImageKind.GENERIC,
                         size_gb=2.0)
    a = OpenStackCloud(Simulator(), streams=RandomStreams(1)).boot_time(image)
    b = OpenStackCloud(Simulator(), streams=RandomStreams(1)).boot_time(image)
    assert a == b
    bigger = MachineImage(image_id="j", name="y", kind=ImageKind.GENERIC,
                          size_gb=8.0)
    fresh = OpenStackCloud(Simulator(), streams=RandomStreams(1))
    small_time = fresh.boot_time(image)
    fresh2 = OpenStackCloud(Simulator(), streams=RandomStreams(1))
    big_time = fresh2.boot_time(bigger)
    assert big_time > small_time


# -- REST route precedence -------------------------------------------------------------


def test_rest_first_matching_route_wins(sim):
    api = RestApi("x")
    api.get("/datasets/{id}", lambda req, p: {"which": "param"})
    api.get("/datasets/special", lambda req, p: {"which": "literal"})
    route, params = api.resolve(HttpRequest("GET", "/v1/datasets/special"))
    # registration order decides: the parameterised route was first
    assert route.pattern == "/v1/datasets/{id}"
    assert params == {"id": "special"}


def test_rest_method_mismatch_is_404(sim):
    network = Network(sim)
    inst = running_instance(sim)
    api = RestApi("x")
    api.get("/thing", lambda req, p: {"ok": True})
    RestServer(sim, api, inst).bind(network)
    reply = network.request(inst.address, HttpRequest("POST", "/v1/thing"))
    sim.run()
    assert reply.value.status == 404


# -- chart rendering with bands ---------------------------------------------------------


def test_chart_ascii_respects_width():
    from repro.portal import ChartSpec, Series
    spec = ChartSpec(title="wide")
    spec.add(Series(label="flow", points=[(float(i), 1.0 + i % 3)
                                          for i in range(500)], units="mm/h"))
    art = spec.to_ascii(width=60, height=8)
    lines = art.splitlines()
    assert all(len(line) <= 62 for line in lines)
