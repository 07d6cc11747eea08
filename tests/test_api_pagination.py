"""PR 8 API-redesign contract tests: pagination, idempotency, caching.

Pins the redesigned ``/v1`` surface from the outside: keyset cursors
that survive ingest, every collection route paginating and nothing
answering outside ``/v1``, ``Idempotency-Key`` replay semantics on
mutating routes, ETag revalidation on the materialized-view routes, and
the RFC-7807 problem envelope on every failure path.
"""

import re

import pytest

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.data.catalog import AssetCatalog
from repro.data.warehouse import DataWarehouse
from repro.dataplane import DataPlane
from repro.dataplane.views import view_fingerprint
from repro.geo import GeoEstate
from repro.obs.hub import obs_of
from repro.obs.telemetry import TelemetryPlane
from repro.portal import widgets
from repro.portal.uploads import UploadService
from repro.portal.widgets import CatchmentDashboard
from repro.resilience.policy import RetryPolicy
from repro.services import (
    HttpRequest,
    InputSpec,
    Network,
    Observation,
    ProcessDescription,
    SensorDescription,
    SosService,
    WpsProcess,
    WpsService,
)
from repro.services.client import RestClient
from repro.services.idempotency import IdempotencyIndex
from repro.services.obsapi import build_observability_api
from repro.services.pagination import (
    MAX_LIMIT,
    CursorError,
    decode_cursor,
    encode_cursor,
    paginate,
    parse_limit,
)
from repro.services.readapi import build_read_api
from repro.services.rest import RestServer
from repro.sim import Simulator
from tests.test_services_soap_wps_sos import InMemoryObservationSource


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def network(sim):
    return Network(sim)


def make_instance(sim, instance_id="api-0000", vcpus=2):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("f", vcpus, 2048, 20))
    inst._mark_running()
    return inst


def call(sim, server, request):
    """Drive one request through ``server.handle`` to completion."""
    out = []

    def go():
        response = yield server.handle(request)
        out.append(response)

    sim.spawn(go(), name="call")
    sim.run()
    return out[0]


def walk(sim, server, path, limit, query=None):
    """Follow ``nextCursor`` until exhausted; returns every page body."""
    bodies = []
    cursor = None
    while True:
        q = dict(query or {})
        q["limit"] = str(limit)
        if cursor:
            q["cursor"] = cursor
        response = call(sim, server, HttpRequest("GET", path, query=q))
        assert response.status == 200
        bodies.append(response)
        cursor = response.body.get("nextCursor")
        if not cursor:
            break
    return bodies


# -- pagination primitives ---------------------------------------------------


def test_cursor_roundtrip_and_garbage():
    for key in (3, "abc", [900.0, 4], None):
        assert decode_cursor(encode_cursor(key)) == key
    with pytest.raises(CursorError):
        decode_cursor("!!!not-base64!!!")
    # decodable base64 that is not the canonical {"a": key} shape
    with pytest.raises(CursorError):
        decode_cursor(encode_cursor(1)[:-2] or "AA")
    import base64
    wrong_shape = base64.urlsafe_b64encode(b"[1, 2]").decode().rstrip("=")
    with pytest.raises(CursorError):
        decode_cursor(wrong_shape)


def test_paginate_empty_collection_and_cursor_past_end():
    request = HttpRequest("GET", "/v1/things")
    page = paginate(request, [], [])
    assert page.items == [] and page.next_cursor is None
    assert "Link" not in page.headers

    items = list(range(5))
    keys = list(range(5))
    past = HttpRequest("GET", "/v1/things",
                       query={"cursor": encode_cursor(99)})
    page = paginate(past, items, keys)
    assert page.items == [] and page.next_cursor is None
    assert page.total == 5


def test_limit_validation_and_clamp():
    with pytest.raises(CursorError):
        parse_limit({"limit": "abc"})
    with pytest.raises(CursorError):
        parse_limit({"limit": "0"})
    with pytest.raises(CursorError):
        parse_limit({"limit": "-3"})
    assert parse_limit({"limit": "999999"}) == MAX_LIMIT
    assert parse_limit({}) == 100


def test_keyset_cursor_stays_valid_after_ingest():
    # Page once, ingest rows that sort after the handed-out cursor,
    # resume: the union is exact — no skips, no repeats.
    items = [f"row-{i}" for i in range(6)]
    keys = list(range(6))
    first = paginate(HttpRequest("GET", "/v1/things", query={"limit": "4"}),
                     items, keys)
    assert first.items == items[:4] and first.next_cursor

    items = items + ["row-6", "row-7"]
    keys = keys + [6, 7]
    rest = paginate(
        HttpRequest("GET", "/v1/things",
                    query={"limit": "10", "cursor": first.next_cursor}),
        items, keys)
    assert first.items + rest.items == items
    assert rest.next_cursor is None


def test_next_link_preserves_filter_params():
    items, keys = list(range(10)), list(range(10))
    page = paginate(
        HttpRequest("GET", "/v1/runs",
                    query={"status": "finished", "limit": "3"}),
        items, keys)
    link = page.headers["Link"]
    assert link.startswith("</v1/runs?") and link.endswith('; rel="next"')
    assert "status=finished" in link
    assert f"cursor={page.next_cursor}" in link


# -- SOS: observations paginate ----------------------------------------------


def make_sos(sim, observations=7):
    source = InMemoryObservationSource()
    source.add_sensor(SensorDescription(
        procedure_id="eden-level-1", observed_property="river-level",
        units="m", latitude=54.6, longitude=-2.6, catchment="eden"))
    for i in range(observations):
        source.add_observation(Observation(
            "eden-level-1", "river-level", i * 900.0, 2.0 + 0.1 * i, "m"))
    return SosService(sim, "cumbria", source)


def test_sos_v1_observations_paginate_exactly(sim):
    service = make_sos(sim, observations=7)
    server = RestServer(sim, service.api, make_instance(sim))
    pages = walk(sim, server, "/v1/sos/observations/eden-level-1", limit=3)
    sizes = [len(p.body["observations"]) for p in pages]
    assert sizes == [3, 3, 1]
    times = [o["time"] for p in pages for o in p.body["observations"]]
    assert times == [i * 900.0 for i in range(7)]
    assert pages[0].body["total"] == 7
    assert 'rel="next"' in pages[0].headers["Link"]
    assert "Link" not in pages[-1].headers


def test_sos_link_header_preserves_temporal_filter(sim):
    service = make_sos(sim, observations=9)
    server = RestServer(sim, service.api, make_instance(sim))
    response = call(sim, server,
                    HttpRequest("GET", "/v1/sos/observations/eden-level-1",
                                query={"begin": "900", "end": "999999",
                                       "limit": "2"}))
    assert response.status == 200
    link = response.headers["Link"]
    assert "begin=900" in link and "end=999999" in link


def test_sos_problem_envelope_on_bad_inputs(sim):
    service = make_sos(sim)
    server = RestServer(sim, service.api, make_instance(sim))

    bad_cursor = call(sim, server,
                      HttpRequest("GET", "/v1/sos/observations/eden-level-1",
                                  query={"cursor": "!!!"}))
    bad_limit = call(sim, server,
                     HttpRequest("GET", "/v1/sos/observations/eden-level-1",
                                 query={"limit": "zero"}))
    bad_time = call(sim, server,
                    HttpRequest("GET", "/v1/sos/observations/eden-level-1",
                                query={"begin": "notatime"}))
    missing = call(sim, server,
                   HttpRequest("GET", "/v1/sos/observations/nope"))

    for response, status in ((bad_cursor, 400), (bad_limit, 400),
                             (bad_time, 400), (missing, 404)):
        assert response.status == status
        body = response.body
        # the one envelope: RFC-7807 problem documents everywhere
        assert set(body) >= {"type", "title", "status", "detail", "retryable"}
        assert body["status"] == status
        assert body["retryable"] is False
        assert body["type"].startswith("evop:problem:")


# -- WPS: capabilities pagination + idempotent execute -----------------------


def make_wps(sim, processes=3):
    store = BlobStore(sim)
    service = WpsService(sim, "hydrology", store.create_container("wps"))
    for i in range(processes):
        description = ProcessDescription(
            identifier=f"proc-{i}",
            title=f"Process {i}",
            inputs=[InputSpec("x", "float", minimum=0.0, maximum=100.0)],
            outputs=["y"],
        )
        service.add_process(WpsProcess(
            description,
            run=lambda inputs, i=i: {"y": inputs["x"] + i},
            cost=lambda inputs: 4.0,
        ))
    return service


class RecordingOutbox:
    """Counts what a service hands the transactional outbox."""

    def __init__(self):
        self.records = []

    def record(self, stream, kind, key, payload):
        self.records.append((stream, kind, key, payload))

    def kinds(self):
        return [kind for _, kind, _, _ in self.records]


def test_wps_capabilities_paginate_on_v1_only(sim):
    service = make_wps(sim, processes=3)
    server = RestServer(sim, service.api, make_instance(sim))

    v1 = call(sim, server, HttpRequest("GET", "/v1/wps",
                                       query={"limit": "2"}))
    assert [p["identifier"] for p in v1.body["processes"]] == \
        ["proc-0", "proc-1"]
    assert v1.body["total"] == 3 and v1.body["nextCursor"]


def test_wps_execute_rejects_malformed_body(sim):
    service = make_wps(sim, processes=1)
    server = RestServer(sim, service.api, make_instance(sim))
    response = call(sim, server,
                    HttpRequest("POST", "/v1/wps/processes/proc-0/execute",
                                body=["not", "a", "dict"]))
    assert response.status == 400
    assert response.body["title"] == "malformed execute body"
    assert response.body["retryable"] is False


def test_wps_execute_idempotency_replay_is_exactly_once(sim):
    service = make_wps(sim, processes=1)
    outbox = RecordingOutbox()
    service.attach_outbox(outbox)
    store = BlobStore(sim, name="idem")
    service.api.idempotency = IdempotencyIndex(
        sim, store.create_container("idempotency"))
    server = RestServer(sim, service.api, make_instance(sim))

    request = HttpRequest("POST", "/v1/wps/processes/proc-0/execute",
                          body={"inputs": {"x": 3.0}},
                          headers={"Idempotency-Key": "run-once"})
    first = call(sim, server, request)
    assert first.status == 200 and first.body["status"] == "succeeded"
    assert "Idempotency-Replayed" not in first.headers

    replay = call(sim, server, HttpRequest(
        "POST", "/v1/wps/processes/proc-0/execute",
        body={"inputs": {"x": 3.0}},
        headers={"Idempotency-Key": "run-once"}))
    assert replay.status == 200
    assert replay.body == first.body          # same runId, same outputs
    assert replay.headers["Idempotency-Replayed"] == "true"
    # the retry caused zero duplicate work: one submitted, one finished
    assert outbox.kinds() == ["run.submitted", "run.finished"]


def test_sync_execute_that_raises_ends_failed_in_the_read_model(sim):
    """A raising model answers 500 *and* its run leaves ``submitted``:
    sync and async Execute publish the same end state, same fields."""
    service = make_wps(sim, processes=0)

    def run(inputs):
        if inputs["x"] > 50.0:
            raise RuntimeError("model blew up")
        return {"y": inputs["x"]}

    service.add_process(WpsProcess(
        ProcessDescription(
            identifier="touchy", title="Touchy",
            inputs=[InputSpec("x", "float", minimum=0.0, maximum=100.0)],
            outputs=["y"]),
        run=run, cost=lambda inputs: 4.0))
    plane = DataPlane(sim, BlobStore(sim, name="views"), consumer_count=1)
    service.attach_outbox(plane.outbox)
    service.api.idempotency = IdempotencyIndex(
        sim, BlobStore(sim, name="idem").create_container("idempotency"))
    wps = RestServer(sim, service.api, make_instance(sim))
    reads = RestServer(sim, build_read_api(sim, plane),
                       make_instance(sim, "api-0001"))

    def execute(x, mode, **headers):
        return call(sim, wps, HttpRequest(
            "POST", "/v1/wps/processes/touchy/execute",
            body={"inputs": {"x": x}, "mode": mode}, headers=headers))

    broken = execute(90.0, "sync", **{"Tenant": "org-a",
                                      "Idempotency-Key": "once"})
    assert broken.status == 500
    assert execute(90.0, "async", Tenant="org-a").status == 202
    assert execute(3.0, "sync").status == 200
    # the failure was forgotten, not recorded: the same key runs again
    again = execute(90.0, "sync", **{"Tenant": "org-a",
                                     "Idempotency-Key": "once"})
    assert again.status == 500
    assert "Idempotency-Replayed" not in again.headers
    plane.pump()

    rows = call(sim, reads, HttpRequest("GET", "/v1/runs")).body["runs"]
    assert [r["status"] for r in rows] == [
        "failed", "failed", "finished", "failed"]
    sync_failed, async_failed, finished = rows[:3]
    assert sync_failed["runId"].startswith("run-")
    assert async_failed["runId"].startswith("exec-")
    # same fields as the async end state: when, and whose
    assert set(sync_failed) == set(async_failed)
    assert sync_failed["finishedAt"] == sync_failed["submittedAt"] + 4.0
    assert sync_failed["tenant"] == "org-a"
    assert "tenant" not in finished
    # a successful sync run still publishes exactly submitted, finished
    kinds = [(e.kind, e.key) for e in plane.streams.stream("runs").read()]
    assert [k for k, key in kinds if key == finished["runId"]] == [
        "run.submitted", "run.finished"]
    assert [k for k, key in kinds if key == sync_failed["runId"]] == [
        "run.submitted", "run.failed"]


def test_wps_idempotency_conflict_and_pending_verdicts(sim):
    service = make_wps(sim, processes=1)
    store = BlobStore(sim, name="idem")
    service.api.idempotency = IdempotencyIndex(
        sim, store.create_container("idempotency"))
    server = RestServer(sim, service.api, make_instance(sim))
    policy = RetryPolicy()

    # First request admitted; the process costs 4 sim-seconds, so a
    # same-key arrival before it finishes sees the pending entry.
    out = []

    def first():
        response = yield server.handle(HttpRequest(
            "POST", "/v1/wps/processes/proc-0/execute",
            body={"inputs": {"x": 1.0}},
            headers={"Idempotency-Key": "k1"}))
        out.append(response)

    sim.spawn(first(), name="first")
    sim.run(until=sim.now + 0.5)

    pending = call(sim, server, HttpRequest(
        "POST", "/v1/wps/processes/proc-0/execute",
        body={"inputs": {"x": 1.0}},
        headers={"Idempotency-Key": "k1"}))
    assert pending.status == 409
    assert pending.body["retryable"] is True
    # RetryPolicy keys on the body verdict: a pending collision is
    # worth backing off and retrying...
    assert policy.should_retry(pending, safe=True) is True

    sim.run()
    assert out and out[0].status == 200

    conflict = call(sim, server, HttpRequest(
        "POST", "/v1/wps/processes/proc-0/execute",
        body={"inputs": {"x": 99.0}},       # same key, different request
        headers={"Idempotency-Key": "k1"}))
    assert conflict.status == 422
    assert conflict.body["retryable"] is False
    # ...while key reuse is permanent: retrying cannot succeed.
    assert policy.should_retry(conflict, safe=True) is False

    replay = call(sim, server, HttpRequest(
        "POST", "/v1/wps/processes/proc-0/execute",
        body={"inputs": {"x": 1.0}},
        headers={"Idempotency-Key": "k1"}))
    assert replay.status == 200
    assert replay.body == out[0].body
    assert replay.headers["Idempotency-Replayed"] == "true"


# -- uploads: mutating portal route, exactly-once under retry ----------------


def test_upload_idempotency_prevents_duplicate_assets(sim):
    store = BlobStore(sim)
    catalog = AssetCatalog()
    service = UploadService(sim, DataWarehouse(store), catalog)
    service.api.idempotency = IdempotencyIndex(
        sim, store.create_container("idempotency"))
    server = RestServer(sim, service.api, make_instance(sim))

    body = {"owner": "alice", "name": "gauge", "dt": 900.0,
            "values": [1.0, 2.0, 3.0]}
    first = call(sim, server, HttpRequest(
        "POST", "/v1/uploads", body=body,
        headers={"Idempotency-Key": "upload-1"}))
    retry = call(sim, server, HttpRequest(
        "POST", "/v1/uploads", body=body,
        headers={"Idempotency-Key": "upload-1"}))

    assert first.status == 201 and retry.status == 201
    assert retry.body == first.body           # same datasetId, same assetId
    assert retry.headers["Idempotency-Replayed"] == "true"
    # the observable side effect happened once, not twice
    assert len(catalog.all()) == 1
    assert service.api.idempotency.replays == 1


def test_upload_listing_paginates(sim):
    store = BlobStore(sim)
    service = UploadService(sim, DataWarehouse(store), AssetCatalog())
    server = RestServer(sim, service.api, make_instance(sim))
    for i in range(5):
        response = call(sim, server, HttpRequest(
            "POST", "/v1/uploads",
            body={"owner": "alice", "name": f"set-{i}", "dt": 900.0,
                  "values": [1.0, 2.0]}))
        assert response.status == 201
    pages = walk(sim, server, "/v1/uploads", limit=2)
    ids = [d["datasetId"] for p in pages for d in p.body["datasets"]]
    assert ids == [f"user/alice/set-{i}" for i in range(5)]
    assert [len(p.body["datasets"]) for p in pages] == [2, 2, 1]


# -- the CQRS read API: ETag revalidation and view pagination ----------------


def seed_plane(sim, catchment="eden", rows=5):
    store = BlobStore(sim, name="views")
    plane = DataPlane(sim, store, consumer_count=1)
    for i in range(rows):
        plane.outbox.record(
            f"obs.{catchment}", "observation", key=f"{catchment}-level-1",
            payload={"procedure": f"{catchment}-level-1",
                     "observedProperty": "river-level",
                     "time": i * 900.0, "value": 1.0 + i, "uom": "m",
                     "catchment": catchment})
    plane.pump()
    return plane


def test_stats_route_etag_revalidation(sim):
    plane = seed_plane(sim)
    server = RestServer(sim, build_read_api(sim, plane), make_instance(sim))

    fresh = call(sim, server,
                 HttpRequest("GET", "/v1/catchments/eden/stats"))
    assert fresh.status == 200 and fresh.body["count"] == 5
    etag = fresh.headers["ETag"]

    unchanged = call(sim, server, HttpRequest(
        "GET", "/v1/catchments/eden/stats",
        headers={"If-None-Match": etag}))
    assert unchanged.status == 304

    # new event advances the view revision: the old ETag stops matching
    plane.outbox.record(
        "obs.eden", "observation", key="eden-level-1",
        payload={"procedure": "eden-level-1",
                 "observedProperty": "river-level",
                 "time": 5 * 900.0, "value": 9.0, "uom": "m",
                 "catchment": "eden"})
    plane.pump()
    changed = call(sim, server, HttpRequest(
        "GET", "/v1/catchments/eden/stats",
        headers={"If-None-Match": etag}))
    assert changed.status == 200 and changed.body["count"] == 6
    assert changed.headers["ETag"] != etag


def test_latest_view_paginates_by_procedure(sim):
    store = BlobStore(sim, name="views")
    plane = DataPlane(sim, store, consumer_count=1)
    for i in range(5):
        plane.outbox.record(
            "obs.eden", "observation", key=f"sensor-{i}",
            payload={"procedure": f"sensor-{i}",
                     "observedProperty": "river-level",
                     "time": 100.0 * i, "value": float(i), "uom": "m",
                     "catchment": "eden"})
    plane.pump()
    server = RestServer(sim, build_read_api(sim, plane), make_instance(sim))
    pages = walk(sim, server, "/v1/observations/latest", limit=2)
    procedures = [o["procedure"] for p in pages
                  for o in p.body["observations"]]
    assert procedures == [f"sensor-{i}" for i in range(5)]


def test_runs_route_filter_rides_the_next_link(sim):
    store = BlobStore(sim, name="views")
    plane = DataPlane(sim, store, consumer_count=1)
    for i in range(4):
        plane.outbox.record(
            "runs", "run.submitted", key=f"run-{i}",
            payload={"process": "double", "submittedAt": float(i)})
        plane.outbox.record(
            "runs", "run.finished", key=f"run-{i}",
            payload={"process": "double", "submittedAt": float(i),
                     "finishedAt": float(i) + 4.0})
    plane.pump()
    server = RestServer(sim, build_read_api(sim, plane), make_instance(sim))
    first = call(sim, server, HttpRequest(
        "GET", "/v1/runs", query={"status": "finished", "limit": "2"}))
    assert first.status == 200
    assert [r["status"] for r in first.body["runs"]] == ["finished"] * 2
    assert "status=finished" in first.headers["Link"]

    pages = walk(sim, server, "/v1/runs", limit=2,
                 query={"status": "finished"})
    run_ids = [r["runId"] for p in pages for r in p.body["runs"]]
    assert run_ids == [f"run-{i}" for i in range(4)]


# -- every route table the source tree builds --------------------------------


#: the GET patterns that answer with a page of a collection
COLLECTION_ROUTES = {
    "/v1/wps", "/v1/sos/observations/{procedure_id}", "/v1/uploads",
    "/v1/catchments", "/v1/observations/latest", "/v1/runs"}


def mounted_apis(sim):
    """``(sim, api)`` for each ``RestApi`` that ``src/`` constructs."""
    estate = GeoEstate(regions=1)
    return [
        (sim, make_sos(sim).api),
        (sim, make_wps(sim).api),
        (sim, UploadService(sim, DataWarehouse(BlobStore(sim)),
                            AssetCatalog()).api),
        (sim, build_read_api(sim, seed_plane(sim))),
        (sim, build_observability_api(sim, TelemetryPlane(sim),
                                      obs_of(sim).tracer)),
        (estate.sim, estate.cells["eu-west"].api),
    ]


def concrete(pattern):
    """A path the pattern matches (the one id a fixture knows, else x)."""
    path = pattern.replace("{procedure_id}", "eden-level-1")
    return re.sub(r"\{\w+\}", "x", path)


def test_a_path_outside_v1_is_a_plain_404_on_every_api(sim):
    for api_sim, api in mounted_apis(sim):
        server = RestServer(api_sim, api, make_instance(api_sim))
        for route in api.describe()["routes"]:
            assert route["path"].startswith("/v1")
            path = concrete(route["path"])
            bare = call(api_sim, server, HttpRequest(
                route["method"], path[len("/v1"):] or "/"))
            assert bare.status == 404, route["path"]
            assert bare.body["retryable"] is False
            versioned = call(api_sim, server,
                             HttpRequest(route["method"], path))
            for response in (bare, versioned):
                assert "Deprecation" not in response.headers
                assert "successor-version" not in \
                    response.headers.get("Link", "")


def test_every_collection_route_paginates(sim):
    paginating = set()
    for api_sim, api in mounted_apis(sim):
        server = RestServer(api_sim, api, make_instance(api_sim))
        for route in api.describe()["routes"]:
            if route["method"] != "GET":
                continue
            path = concrete(route["path"])
            garbled = call(api_sim, server, HttpRequest(
                "GET", path, query={"cursor": "%%%"}))
            if garbled.status != 400:
                continue
            assert garbled.body["title"] == "invalid cursor"
            paginating.add(route["path"])
            page = call(api_sim, server, HttpRequest(
                "GET", path, query={"limit": "1"}))
            assert page.status == 200
            assert {"total", "nextCursor"} <= set(page.body)
            assert all(len(value) <= 1 for value in page.body.values()
                       if isinstance(value, list))
    assert paginating == COLLECTION_ROUTES


def test_a_mutated_response_body_does_not_reach_the_views(sim):
    plane = seed_plane(sim)
    plane.outbox.record("runs", "run.submitted", key="run-0",
                        payload={"process": "double", "submittedAt": 0.0})
    plane.pump()
    server = RestServer(sim, build_read_api(sim, plane), make_instance(sim))
    fingerprints = [view_fingerprint(view) for view in plane.views]

    stats = call(sim, server, HttpRequest("GET", "/v1/catchments/eden/stats"))
    stats.body["count"] = -1
    latest = call(sim, server, HttpRequest("GET", "/v1/observations/latest"))
    latest.body["observations"][0]["value"] = -1.0
    latest.body["observations"].clear()
    runs = call(sim, server, HttpRequest("GET", "/v1/runs"))
    runs.body["runs"][0]["status"] = "vandalised"

    assert [view_fingerprint(view) for view in plane.views] == fingerprints
    again = call(sim, server, HttpRequest("GET", "/v1/catchments/eden/stats"))
    assert again.body["count"] == 5
    again = call(sim, server, HttpRequest("GET", "/v1/runs"))
    assert again.body["runs"][0]["status"] == "submitted"


# -- the client side: revalidation and the dashboard widget ------------------


def test_rest_client_revalidates_stats(sim, network):
    plane = seed_plane(sim)
    instance = make_instance(sim)
    RestServer(sim, build_read_api(sim, plane), instance).bind(network)
    client = RestClient(sim, network, instance.address, service="read")
    out = []

    def go():
        out.append((yield client.catchment_stats("eden")))
        out.append((yield client.catchment_stats("eden")))

    sim.spawn(go(), name="client")
    sim.run()
    first, second = out
    assert first.status == 200 and second.status == 200
    assert second.body == first.body
    # the second answer came from the conditional-GET cache
    assert second.headers.get("X-Revalidated") == "true"


def test_dashboard_renders_from_read_api(sim, network, monkeypatch):
    plane = seed_plane(sim, rows=3)
    plane.outbox.record("runs", "run.submitted", key="run-7",
                        payload={"process": "double", "submittedAt": 1.0})
    plane.pump()
    instance = make_instance(sim)
    RestServer(sim, build_read_api(sim, plane), instance).bind(network)

    dashboard = CatchmentDashboard(sim, network, instance.address, "eden")
    monkeypatch.setattr(widgets, "DASHBOARD_PAGE", 2)
    done = dashboard.refresh()
    sim.run()
    assert done.value is True and dashboard.errors == []
    summary = dashboard.summary()
    assert summary["stats"]["count"] == 3
    assert summary["latestCount"] == 1        # one procedure in the table
    assert summary["recentRuns"] == [
        {"runId": "run-7", "status": "submitted"}]
