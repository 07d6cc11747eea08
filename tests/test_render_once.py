"""One render per content: wire sizes stay exact, documents render once.

A memoised model result and a materialized view document are
:class:`~repro.perf.keys.Sized`: they carry their wire size, so a
response that serves one adds a known number instead of re-encoding it.
Two oracles pin that nothing on the simulated wire moved — the
``json.dumps(..., default=str)`` length of the plain body, and a whole
estate run under the previous ``payload_bytes`` — and the counts pin
where the renders went, in the style of ``tests/test_write_path_counts.py``:
every render goes through ``json.JSONEncoder.encode``, so a counting
``encode`` sees each one whichever spelling produced it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import BlobStore, Flavor, ImageKind, Instance, MachineImage
from repro.core import Evop, EvopConfig
from repro.data import STUDY_CATCHMENTS
from repro.dataplane import DataPlane
from repro.modellib import make_topmodel_process
from repro.perf.keys import Sized
from repro.portal.widgets import CatchmentDashboard, ModellingWidget
from repro.services import HttpRequest, Network, WpsService
from repro.services import channels, transport
from repro.services.readapi import build_read_api
from repro.services.rest import RestServer
from repro.services.transport import payload_bytes
from repro.sim import Simulator
from repro.tenancy import TenantSpec


def plain(value):
    """``value`` with every sized document turned back into a dict."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def previous_payload_bytes(body):
    """``payload_bytes`` as it was before documents carried a size."""
    if body is None:
        return 0
    if isinstance(body, (str, bytes, bytearray)):
        return len(body)
    if not body and isinstance(body, (dict, list)):
        return 2
    try:
        return len(json.dumps(body, default=str))
    except (TypeError, ValueError):
        return len(repr(body))


# -- exactness -----------------------------------------------------------------


class Opaque:
    """No JSON form: the wire spells it with ``default=str``."""

    def __init__(self, tag):
        self.tag = tag

    def __str__(self):
        return f"<opaque {self.tag}>"


keys = st.one_of(st.text(max_size=6), st.integers(-5, 5), st.booleans(),
                 st.none(), st.floats(allow_nan=False, width=16))
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(), st.text(max_size=8),
                    st.builds(Opaque, st.integers(0, 9)))


def _sized(children):
    """A document, sized already or not, whose values are ``children``."""
    def build(items, sized_now):
        document = Sized(items)
        if sized_now:
            document.wire_size()
        return document
    return st.builds(build, st.dictionaries(st.text(max_size=6), children,
                                            max_size=4), st.booleans())


values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        _sized(children),
        st.lists(_sized(children), min_size=1, max_size=3)),
    max_leaves=20)
bodies = st.one_of(st.dictionaries(keys, values, max_size=5),
                   st.lists(values, max_size=4), _sized(values))


@settings(max_examples=150, deadline=None)
@given(bodies)
def test_payload_bytes_is_the_length_of_the_plain_body(body):
    assert payload_bytes(body) == len(json.dumps(plain(body), default=str))


@pytest.mark.parametrize("write", [
    lambda d: d.__setitem__("peak", 9.5),
    lambda d: d.__delitem__("peak"),
    lambda d: d.update(extra=[1, 2]),
    lambda d: d.setdefault("extra", "x"),
    lambda d: d.pop("peak"),
    lambda d: d.popitem(),
    lambda d: d.clear(),
    lambda d: d.__ior__({"peak": None}),
])
def test_a_top_level_write_forgets_the_size(write):
    document = Sized(peak=1.0, series=[1.0, 2.0])
    twin = document.copy()
    assert payload_bytes(twin) == payload_bytes({"peak": 1.0,
                                                 "series": [1.0, 2.0]})
    write(twin)
    assert payload_bytes(twin) == len(json.dumps(dict(twin)))
    assert payload_bytes({"outputs": twin}) == \
        len(json.dumps({"outputs": dict(twin)}))
    # the original kept its content, and its size with it
    assert document == {"peak": 1.0, "series": [1.0, 2.0]}
    assert document.wire_size() == len(json.dumps(document))


def test_a_copy_reaches_nothing_of_its_original():
    document = Sized(series=[1.0, 2.0], peak=3.0)
    twin = document.copy()
    assert type(twin) is Sized and twin == document
    twin["series"].append(4.0)
    assert document["series"] == [1.0, 2.0]


TENANTS = ("org-a", "org-b")


def _estate_bytes():
    """A short full-estate run; the wire's byte counts at its end."""
    evop = Evop(EvopConfig(seed=4, truth_days=4, storm_day=2,
                           telemetry_interval=5.0)).bootstrap()
    evop.enable_tenancy(specs=[TenantSpec(t, rate=20.0, burst=40.0)
                               for t in TENANTS])
    evop.enable_dataplane()
    evop.expose_read_api()
    evop.run_for(600.0)
    sim, tool = evop.sim, evop.left()
    catchment = tool.catchment.name
    widgets = []

    def read_address():
        for service in evop.sched.services():
            if service.name == "read" and service.serving():
                return service.serving()[0].address
        return None

    def user(index):
        session = evop.rb.connect(f"user-{index}", tool.service_name,
                                  tenant=TENANTS[index % len(TENANTS)])
        widget = ModellingWidget(
            sim, evop.network, session, f"topmodel-{catchment}",
            flood_threshold_mm_h=tool.catchment.flood_threshold_mm_h,
            resilient=evop.resilient)
        dashboard = CatchmentDashboard(sim, evop.network, read_address,
                                       catchment, resilient=evop.resilient)
        widgets.append((widget, dashboard))
        assert (yield widget.load())
        buttons = widget.scenario_buttons
        for press in range(index, index + 2):
            widget.select_scenario(buttons[press % len(buttons)])
            assert (yield widget.run(duration_hours=48)) is not None
            assert (yield widget.run_async(duration_hours=48)) is not None
            assert (yield dashboard.refresh())
            yield 10.0

    def feed():
        sensors = [tool.sensors.sensor(p) for p in tool.sensors.procedures()]
        for _ in range(30):
            for sensor in sensors:
                reading = sensor.observe_now()
                evop.rb.gateway.broadcast({
                    "channel": "obs", "procedure": reading.procedure_id,
                    "time": reading.time, "value": reading.value})
            yield 10.0

    sim.spawn(feed(), name="feed")
    evop.run_for(60.0)
    for index in range(4):
        sim.spawn(user(index), name=f"user-{index}")
    evop.run_for(900.0)
    assert all(len(widget.runs) == 4 for widget, _ in widgets)
    instances = [instance for cloud in (evop.private, evop.public)
                 for instance in cloud.instances()]
    return evop.network.total_bytes, sorted(
        (i.instance_id, i.net_bytes_in, i.net_bytes_out) for i in instances)


def test_an_estate_run_puts_the_same_bytes_on_the_wire(monkeypatch):
    sized = _estate_bytes()
    monkeypatch.setattr(transport, "payload_bytes", previous_payload_bytes)
    monkeypatch.setattr(channels, "payload_bytes", previous_payload_bytes)
    assert _estate_bytes() == sized


# -- counts -----------------------------------------------------------------------


@pytest.fixture()
def renders(monkeypatch):
    """Every JSON text rendered from here on."""
    texts = []
    encode = json.JSONEncoder.encode

    def counting(self, value):
        text = encode(self, value)
        texts.append(text)
        return text

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    return texts


def rendered(texts, marker):
    """How many documents carrying ``marker`` were rendered."""
    return sum(text.count(marker) for text in texts)


def make_instance(sim, instance_id):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    instance = Instance(sim, instance_id, "openstack", image,
                        Flavor("f", 2, 4096, 20))
    instance._mark_running()
    return instance


def send(sim, network, address, request):
    """One request over the wire: its response and the bytes it cost."""
    before = network.total_bytes
    signal = network.request(address, request, timeout=300.0)
    sim.run()
    assert signal.value.ok
    return signal.value, network.total_bytes - before


@pytest.fixture()
def wps():
    sim = Simulator()
    network = Network(sim)
    process = make_topmodel_process(STUDY_CATCHMENTS["morland"])
    service = WpsService(sim, "left",
                         BlobStore(sim).create_container("status"))
    service.add_process(process)
    instance = make_instance(sim, "wps-0")
    service.replica(instance).bind(network)

    def execute(mode="sync", **inputs):
        return send(sim, network, instance.address, HttpRequest(
            "POST", "/v1/wps/processes/topmodel-morland/execute",
            body={"inputs": inputs, "mode": mode}))

    def poll(location):
        return send(sim, network, instance.address,
                    HttpRequest("GET", location))

    return process, execute, poll


OUTPUTS = '"hydrograph_mm_h"'


def test_identical_executes_render_the_model_outputs_once(wps, renders):
    process, execute, _ = wps
    answers = [execute(duration_hours=24) for _ in range(4)]
    assert len({cost for _, cost in answers}) == 1
    # the miss rendered its outputs once; the three hits never did
    assert rendered(renders, OUTPUTS) == 1
    stats = process.results.stats()
    assert (stats["misses"], stats["hits"]) == (1, 3)
    execute(duration_hours=24, scenario="compaction")
    assert rendered(renders, OUTPUTS) == 2


def test_a_client_that_edits_its_outputs_reaches_nothing(wps, renders):
    process, execute, _ = wps
    first, cost = execute(duration_hours=24)
    outputs = first.body["outputs"]
    outputs["hydrograph_mm_h"].append(-1.0)
    outputs["peak_mm_h"] = "vandalised"
    del outputs["scenario"]
    again, again_cost = execute(duration_hours=24)
    assert again_cost == cost
    assert again.body["outputs"] == process.compute(
        process.validate({"duration_hours": 24}))
    assert rendered(renders, OUTPUTS) == 1


def test_polls_of_a_settled_execution_render_its_outputs_once(wps, renders):
    _, execute, poll = wps
    accepted, _ = execute(duration_hours=24, mode="async")
    location = accepted.body["statusLocation"]
    polls = [poll(location) for _ in range(3)]
    assert {status.body["status"] for status, _ in polls} == {"succeeded"}
    assert len({cost for _, cost in polls}) == 1
    # a poller that edits its outputs reaches neither the stored status
    # document nor the next poll's bytes
    polls[0][0].body["outputs"]["hydrograph_mm_h"].append(-1.0)
    polls[0][0].body["outputs"]["peak_mm_h"] = "vandalised"
    again, cost = poll(location)
    assert cost == polls[0][1]
    assert again.body["outputs"] == polls[1][0].body["outputs"]
    assert rendered(renders, OUTPUTS) == 1


def observe(plane, procedure, time, value, catchment="eden"):
    plane.outbox.record(
        f"obs.{catchment}", "observation", key=procedure,
        payload={"procedure": procedure, "observedProperty": "river-level",
                 "time": time, "value": value, "uom": "m",
                 "catchment": catchment})


@pytest.fixture()
def reads():
    sim = Simulator()
    network = Network(sim)
    plane = DataPlane(sim, BlobStore(sim, name="views"), consumer_count=1)
    for index in range(5):
        observe(plane, f"eden-level-{index}", 0.0, 1.0 + index)
        plane.outbox.record("runs", "run.submitted", key=f"run-{index}",
                            payload={"process": "topmodel",
                                     "submittedAt": float(index)})
    plane.pump()
    instance = make_instance(sim, "read-0")
    RestServer(sim, build_read_api(sim, plane), instance).bind(network)

    def get(path):
        return send(sim, network, instance.address, HttpRequest("GET", path))

    return plane, get


ROUTES = [("/v1/runs", "runs", '"runId"'),
          ("/v1/observations/latest", "observations", '"observedProperty"')]


@pytest.mark.parametrize("path, field, marker", ROUTES)
def test_unchanged_pages_render_each_row_once(reads, renders, path, field,
                                              marker):
    _, get = reads
    pages = [get(path) for _ in range(4)]
    assert len({cost for _, cost in pages}) == 1
    assert all(len(page.body[field]) == 5 for page, _ in pages)
    assert rendered(renders, marker) == 5


def test_an_unchanged_stats_document_renders_once(reads, renders):
    _, get = reads
    documents = [get("/v1/catchments/eden/stats") for _ in range(4)]
    assert len({cost for _, cost in documents}) == 1
    assert documents[0][0].body["count"] == 5
    assert rendered(renders, '"windowHours"') == 1


def test_a_fold_rerenders_only_what_it_replaced(reads, renders):
    plane, get = reads
    for path, _, _ in ROUTES:
        get(path)
    get("/v1/catchments/eden/stats")
    plane.outbox.record("runs", "run.finished", key="run-2",
                        payload={"finishedAt": 9.0, "peak_mm_h": 4.2})
    observe(plane, "eden-level-3", 900.0, 7.0)
    plane.pump()
    del renders[:]                  # the outbox's own round trips
    runs, _ = get("/v1/runs")
    latest, _ = get("/v1/observations/latest")
    stats, _ = get("/v1/catchments/eden/stats")
    assert runs.body["runs"][2]["status"] == "finished"
    assert latest.body["observations"][3]["value"] == 7.0
    assert stats.body["count"] == 6
    assert rendered(renders, '"runId"') == 1
    assert rendered(renders, '"observedProperty"') == 1
    assert rendered(renders, '"windowHours"') == 1


def test_a_client_that_edits_its_page_reaches_nothing(reads, renders):
    plane, get = reads
    first, cost = get("/v1/runs")
    row = first.body["runs"][0]
    row["status"] = "vandalised"
    del row["process"]
    first.body["runs"].clear()
    stats, stats_cost = get("/v1/catchments/eden/stats")
    stats.body["count"] = -1
    again, again_cost = get("/v1/runs")
    assert again_cost == cost and again.body["runs"][0]["status"] == "submitted"
    assert plane.runs.rows()[0] == {"runId": "run-0", "status": "submitted",
                                    "process": "topmodel", "submittedAt": 0.0}
    restats, restats_cost = get("/v1/catchments/eden/stats")
    assert restats_cost == stats_cost and restats.body["count"] == 5
    assert plane.stats.stats("eden")["count"] == 5
    assert rendered(renders, '"runId"') == 5
    assert rendered(renders, '"windowHours"') == 1
