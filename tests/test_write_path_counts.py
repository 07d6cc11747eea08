"""What one durable write costs, as counts.

Counts, not timings: they repeat exactly, so they gate without a noise
margin (the style of the per-GET event budget in
``tests/test_sim_continuations.py``).  Each pins one place where the
write path used to do work nobody read:

* ``Container.put`` rendered every payload to stamp an etag and a size;
* a keyed POST derived its ``idem/`` blob key four times;
* an event took the JSON round trip at the outbox and again at the
  stream;
* a journal ``sync`` listed the whole journals container.
"""

import json

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.cloud.storage import BlobStore, Container
from repro.dataplane import DataPlane
from repro.durable import JournalStore
from repro.durable import journal as j
from repro.services import HttpRequest, RestApi, RestServer
from repro.services import idempotency
from repro.services.idempotency import IdempotencyIndex
from repro.sim import Simulator


class CountedRepr:
    """A payload that counts how often it is rendered."""

    def __init__(self):
        self.renders = 0

    def __repr__(self):
        self.renders += 1
        return "CountedRepr()"


def test_put_renders_nothing_and_the_first_etag_renders_once():
    sim = Simulator()
    container = BlobStore(sim).create_container("c")
    payload = CountedRepr()
    blob = container.put("k", payload)
    assert container.get("k") is blob and container.read("k") is payload
    assert payload.renders == 0
    first = blob.etag
    assert payload.renders == 1
    # never again: not for the size, a second etag or a conditional get
    assert blob.size_bytes == len("CountedRepr()")
    assert blob.etag == first
    assert container.get_if_none_match("k", first) is None
    assert container.total_bytes() == len("CountedRepr()")
    assert payload.renders == 1


def test_the_size_read_first_renders_once_too():
    container = BlobStore(Simulator()).create_container("c")
    payload = CountedRepr()
    blob = container.put("k", payload)
    assert blob.size_bytes == len("CountedRepr()")
    assert payload.renders == 1
    assert blob.etag and payload.renders == 1


def test_a_keyed_post_derives_its_idempotency_blob_key_once(monkeypatch):
    derived = []
    content_key = idempotency.content_key

    def counting(value, *args, **kwargs):
        key = content_key(value, *args, **kwargs)
        if isinstance(value, tuple):        # (tenant, key), not a fingerprint
            derived.append(f"idem/{key}")
        return key

    monkeypatch.setattr(idempotency, "content_key", counting)
    sim = Simulator()
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    instance = Instance(sim, "os-0000", "openstack", image,
                        Flavor("f", 2, 2048, 20))
    instance._mark_running()
    api = RestApi("runs")
    api.post("/runs", lambda request, params: (201, {"run": "r-1"}))
    container = BlobStore(sim).create_container("idempotency")
    api.idempotency = IdempotencyIndex(sim, container)
    server = RestServer(sim, api, instance)

    replies = []
    server.handle(HttpRequest(
        "POST", "/v1/runs", body={"x": 1},
        headers={"Idempotency-Key": "once"})).then(replies.append)
    sim.run()
    assert [r.status for r in replies] == [201]
    # admit read + reserve, record read + store: four blob operations
    # under one derivation of the key (four derivations before)
    assert derived == container.list(prefix="idem/")
    assert container.read(derived[0])["state"] == "done"


def test_an_event_takes_one_json_round_trip_from_record_to_stream(
        monkeypatch):
    trips = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        trips.append(text)
        return loads(text, *args, **kwargs)

    sim = Simulator()
    plane = DataPlane(sim, BlobStore(sim))
    monkeypatch.setattr(json, "loads", counting)
    plane.outbox.record("obs.eden", "observation", key="p",
                        payload={"time": 0.0, "value": (1.0, 2.0)})
    assert plane.relay.drain_once() == 1
    monkeypatch.undo()
    # once, at the outbox (the stream validated it again before)
    assert trips == ['{"time": 0.0, "value": [1.0, 2.0]}']
    [event] = plane.streams.stream("obs.eden").read()
    assert event.payload == {"time": 0.0, "value": [1.0, 2.0]}


def test_a_sync_reads_no_key_outside_its_own_run(monkeypatch):
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim))
    for i in range(50):
        other = store.create(f"other-{i:02d}")
        other.append(j.SCHEDULED, workflow="w")
        other.append(j.DONE)
    journal = store.create("mine")
    journal.append(j.SCHEDULED, workflow="w")

    touched = []
    get, listing = Container.get, Container.list

    def counting_get(self, key):
        touched.append(key)
        return get(self, key)

    def counting_list(self, prefix=""):
        touched.append(f"list({prefix!r})")
        return listing(self, prefix)

    monkeypatch.setattr(Container, "get", counting_get)
    monkeypatch.setattr(Container, "list", counting_list)
    journal.append(j.CHECKPOINT, sync=False, node_id="a")
    journal.append(j.CHECKPOINT, sync=False, node_id="b")
    assert journal.sync() == 2
    # one probe: the first key past what this writer already knows of
    assert touched == ["mine/00000001"]
    assert journal.sync() == 0
    assert touched == ["mine/00000001", "mine/00000003"]
