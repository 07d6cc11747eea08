"""Unit tests for the transport layer and the REST engine."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Flavor, ImageKind, Instance, MachineImage, MEDIUM
from repro.services import (
    ConnectionRefused,
    HttpRequest,
    Network,
    RequestTimeout,
    RestApi,
    RestServer,
)
from repro.services.rest import RestBackground, RestDeferred
from repro.cloud.instance import Job
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def network(sim):
    return Network(sim)


def make_instance(sim, instance_id="os-0000", vcpus=2):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    flavor = Flavor("f", vcpus, 2048, 20)
    inst = Instance(sim, instance_id, "openstack", image, flavor)
    inst._mark_running()
    return inst


def make_catalog_server(sim, network, instance):
    api = RestApi("catalog")
    api.get("/datasets", lambda req, p: {"datasets": ["eden-rain"]})
    api.get("/datasets/{dataset_id}",
            lambda req, p: {"id": p["dataset_id"], "source": "in-situ"})
    api.post("/datasets", lambda req, p: (201, {"created": req.body["name"]}))
    return RestServer(sim, api, instance).bind(network)


def request(sim, network, address, req, timeout=30.0):
    reply = network.request(address, req, timeout=timeout)
    sim.run()
    return reply.value


def test_basic_get_roundtrip(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    response = request(sim, network, instance.address,
                       HttpRequest("GET", "/v1/datasets"))
    assert response.ok
    assert response.body == {"datasets": ["eden-rain"]}
    assert sim.now > 0  # network latency + handler cost elapsed


def test_path_params_are_extracted(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    response = request(sim, network, instance.address,
                       HttpRequest("GET", "/v1/datasets/eden-rain"))
    assert response.body["id"] == "eden-rain"


def test_post_returns_custom_status(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    response = request(sim, network, instance.address,
                       HttpRequest("POST", "/v1/datasets", body={"name": "new"}))
    assert response.status == 201
    assert response.body == {"created": "new"}


def test_unknown_route_is_404(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    response = request(sim, network, instance.address,
                       HttpRequest("GET", "/v1/nope"))
    assert response.status == 404


def test_unregistered_address_refused(sim, network):
    result = request(sim, network, "ghost.openstack.evop",
                     HttpRequest("GET", "/v1/datasets"))
    assert isinstance(result, ConnectionRefused)


def test_dead_instance_refuses_connections(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    instance._mark_failed("crash")
    result = request(sim, network, instance.address,
                     HttpRequest("GET", "/v1/datasets"))
    assert isinstance(result, ConnectionRefused)


def test_blackholed_instance_times_out(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    instance._blackhole()
    result = request(sim, network, instance.address,
                     HttpRequest("GET", "/v1/datasets"), timeout=5.0)
    assert isinstance(result, RequestTimeout)
    assert result.after_seconds == 5.0
    # the request *was* received: inbound counted, nothing transmitted
    # (not even the transport-level ack - the transmit path is dead)
    assert instance.net_bytes_in > 0
    assert instance.net_bytes_out == 0


def test_instance_dying_mid_request_times_out(sim, network):
    instance = make_instance(sim, vcpus=1)
    api = RestApi("slow")
    api.get("/slow", lambda req, p: {"ok": True}, cost=10.0)
    RestServer(sim, api, instance).bind(network)
    reply = network.request(instance.address, HttpRequest("GET", "/v1/slow"),
                            timeout=20.0)
    sim.schedule(2.0, instance._mark_failed, "crash")
    sim.run()
    assert isinstance(reply.value, RequestTimeout)


def test_handler_exception_becomes_500(sim, network):
    instance = make_instance(sim)
    api = RestApi("bad")

    def explode(req, p):
        raise RuntimeError("kaboom")

    api.get("/bad", explode)
    RestServer(sim, api, instance).bind(network)
    response = request(sim, network, instance.address,
                       HttpRequest("GET", "/v1/bad"))
    assert response.status == 500
    assert "kaboom" in str(response.body)


def test_byte_accounting_on_instance(sim, network):
    instance = make_instance(sim)
    make_catalog_server(sim, network, instance)
    request(sim, network, instance.address, HttpRequest("GET", "/v1/datasets"))
    assert instance.net_bytes_in > 0
    assert instance.net_bytes_out > 0
    assert network.total_bytes >= instance.net_bytes_in + instance.net_bytes_out


def test_requests_queue_on_busy_instance(sim, network):
    instance = make_instance(sim, vcpus=1)
    api = RestApi("model")
    api.get("/run", lambda req, p: {"ok": True}, cost=5.0)
    RestServer(sim, api, instance).bind(network)
    first = network.request(instance.address, HttpRequest("GET", "/v1/run"),
                            timeout=60)
    second = network.request(instance.address, HttpRequest("GET", "/v1/run"),
                             timeout=60)
    sim.run()
    assert first.value.ok and second.value.ok


def test_rest_deferred_runs_job_then_renders(sim, network):
    instance = make_instance(sim)
    api = RestApi("wps-ish")

    def execute(req, p):
        job = Job(cost=8.0, compute=lambda: {"peak": 3.2})
        return RestDeferred(job=job, render=lambda out: (200, {"outputs": out}))

    api.post("/execute", execute)
    RestServer(sim, api, instance).bind(network)
    response = request(sim, network, instance.address,
                       HttpRequest("POST", "/v1/execute"))
    assert response.ok
    assert response.body["outputs"] == {"peak": 3.2}
    assert sim.now >= 8.0 / instance.effective_speed


def test_rest_background_answers_before_job_finishes(sim, network):
    instance = make_instance(sim)
    api = RestApi("async")
    finished = []

    def execute(req, p):
        job = Job(cost=50.0, compute=lambda: finished.append(True))
        return RestBackground(job=job, status=202, body={"accepted": True})

    api.post("/execute", execute)
    RestServer(sim, api, instance).bind(network)
    reply = network.request(instance.address, HttpRequest("POST", "/v1/execute"),
                            timeout=120)
    sim.run(until=5.0)
    assert reply.value.status == 202
    assert not finished
    sim.run()
    assert finished == [True]


def test_stateless_replicas_answer_identically(sim, network):
    api = RestApi("catalog")
    api.get("/datasets", lambda req, p: {"datasets": ["eden-rain"]})
    a = make_instance(sim, "os-0001")
    b = make_instance(sim, "os-0002")
    RestServer(sim, api, a).bind(network)
    RestServer(sim, api, b).bind(network)
    first = request(sim, network, a.address, HttpRequest("GET", "/v1/datasets"))
    second = request(sim, network, b.address, HttpRequest("GET", "/v1/datasets"))
    assert first.body == second.body


def test_route_pattern_does_not_match_deeper_paths():
    api = RestApi("x")
    api.get("/datasets/{dataset_id}", lambda req, p: p)
    route, params = api.resolve(HttpRequest("GET", "/v1/datasets/a/b"))
    assert route is None


# -- the precomputed route table ----------------------------------------------


def scan_regex(pattern):
    """The pattern regex as the linear scan compiled it (text unescaped)."""
    return re.compile(
        "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$")


def linear_resolve(api, method, path):
    """The oracle: scan the routes in registration order.

    Shares nothing with the lookup under test but the registered
    ``(method, pattern)`` pairs.
    """
    for route in api._routes:
        found = scan_regex(route.pattern).match(path)
        if route.method == method and found is not None:
            return route, found.groupdict()
    return None, {}


def test_literal_route_registered_first_beats_a_later_pattern():
    api = RestApi("x")
    api.get("/datasets/special", lambda req, p: "special")
    api.get("/datasets/{dataset_id}", lambda req, p: p)
    route, params = api.resolve(HttpRequest("GET", "/v1/datasets/special"))
    assert route.pattern == "/v1/datasets/special" and params == {}
    route, params = api.resolve(HttpRequest("GET", "/v1/datasets/eden"))
    assert route.pattern == "/v1/datasets/{dataset_id}"
    assert params == {"dataset_id": "eden"}


def test_literal_route_registered_after_a_matching_pattern_stays_shadowed():
    api = RestApi("x")
    api.get("/datasets/{dataset_id}", lambda req, p: p)
    api.get("/datasets/special", lambda req, p: "special")
    route, params = api.resolve(HttpRequest("GET", "/v1/datasets/special"))
    assert route.pattern == "/v1/datasets/{dataset_id}"
    assert params == {"dataset_id": "special"}


def test_pattern_text_is_literal_not_regex():
    api = RestApi("x")
    api.get("/files/{name}.json", lambda req, p: p)
    route, params = api.resolve(HttpRequest("GET", "/v1/files/a.json"))
    assert params == {"name": "a"}
    # the one place the table and the scan part ways, on purpose: the
    # scan read the dot as "any character", which no mounted pattern
    # relied on and which would let a match change its slash count
    assert scan_regex("/v1/files/{name}.json").match("/v1/files/aXjson")
    assert api.resolve(HttpRequest("GET", "/v1/files/aXjson"))[0] is None
    api.get("/v1.0", lambda req, p: p)
    assert scan_regex("/v1/v1.0").match("/v1/v1/0")
    assert api.resolve(HttpRequest("GET", "/v1/v1/0"))[0] is None
    assert api.resolve(HttpRequest("GET", "/v1/v1.0"))[0].pattern == "/v1/v1.0"


def test_route_table_listing_is_unchanged_by_the_lookup():
    api = RestApi("x")
    api.get("/a/{x}", lambda req, p: p, cost=0.01)
    api.post("/a", lambda req, p: p)
    assert api.describe()["routes"] == [
        {"method": "GET", "path": "/v1", "cost": 0.005, "safe": True,
         "cacheable": False},
        {"method": "GET", "path": "/v1/a/{x}", "cost": 0.01, "safe": True,
         "cacheable": False},
        {"method": "POST", "path": "/v1/a", "cost": 0.005, "safe": False,
         "cacheable": False}]


_segments = st.sampled_from(["a", "b", "{x}", "{y}", "a-{x}"])
_patterns = st.lists(_segments, min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts)).filter(
    lambda pattern: max(pattern.count("{x}"), pattern.count("{y}")) < 2)
_paths = st.lists(st.sampled_from(["a", "b", "c", "a-b", "v1"]), min_size=1,
                  max_size=4).map(lambda parts: "/" + "/".join(parts))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["GET", "POST"]), _patterns),
                max_size=8),
       st.lists(st.tuples(st.sampled_from(["GET", "POST"]), _paths),
                min_size=1, max_size=12))
def test_resolve_equals_first_match_in_registration_order(table, requests):
    api = RestApi("x")
    for method, pattern in table:
        api.route(method, pattern, lambda req, p: p)
    for method, path in requests:
        assert api.resolve(HttpRequest(method, path)) \
            == linear_resolve(api, method, path)


def test_empty_containers_are_sized_without_serialising():
    from repro.services.transport import payload_bytes
    assert payload_bytes({}) == payload_bytes([]) == 2
    assert payload_bytes("") == payload_bytes(b"") == 0
    assert payload_bytes(None) == 0
    assert payload_bytes(0) == 1 and payload_bytes(False) == 5
    assert payload_bytes({"a": []}) == len('{"a": []}')
