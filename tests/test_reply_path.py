"""One replica answers the wire by direct call, under any schedule.

A ``RestServer`` calls the transport's ``reply`` once, inside the event
that produced the response; the transport puts it on the wire unless
the host is down or blackholed.  Hypothesis replays schedules on one
replica (1 and 2 vCPUs) mixing plain and deferred GETs, 404s, bursts
past a two-deep accept queue (503), keyed POSTs (fresh, replayed,
in flight, conflicting), a crash mid-job, a blackhole and its heal,
and client timeouts short enough to race a late response.  Checked:

* every request settles exactly once, with a response, a refusal or a
  timeout;
* the RED ``requests`` counter equals the replies the server emitted;
* nothing settles after the client's timeout, and a timeout settles at
  exactly that instant;
* no reply leaves a crashed or blackholed host;
* a keyed request's 2xx reply goes out after its outcome is recorded,
  so a replay at that instant already gets the same response.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.cloud.instance import Job
from repro.cloud.storage import BlobStore
from repro.obs import obs_of
from repro.perf.keys import content_key
from repro.services import HttpRequest, HttpResponse, Network, RestApi, \
    RestServer
from repro.services.idempotency import IdempotencyIndex
from repro.services.rest import RestDeferred
from repro.services.transport import ConnectionRefused, RequestTimeout
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT

IMAGE = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
TIMEOUTS = (0.03, 0.2, 30.0)
KEYS = ("k0", "k1")

requests_ = st.one_of(
    st.tuples(st.just("get"), st.sampled_from(
        ("/v1/fast", "/v1/slow", "/v1/deferred", "/v1/missing"))),
    st.tuples(st.just("post"), st.sampled_from(KEYS), st.integers(0, 1)),
)
faults = st.sampled_from((("crash",), ("blackhole",), ("heal",)))
operations = st.tuples(
    st.sampled_from((0.0, 0.01, 0.3, 2.0)),          # gap before the op
    st.one_of(requests_, requests_, faults),
    st.sampled_from(TIMEOUTS))


class Watched:
    """The replica as the network sees it, logging each reply it emits
    with whether its host could transmit and whether its key was
    already recorded at that instant."""

    def __init__(self, server, index, emitted):
        self.server = server
        self.index = index
        self.emitted = emitted

    def handle(self, request, reply):
        instance = self.server.instance

        def watched(response):
            key = request.headers.get("Idempotency-Key")
            recorded = True
            if key is not None and response.ok:
                stored = self.index._container.read(
                    f"idem/{content_key((DEFAULT_TENANT, key))}")
                recorded = stored.get("response", {}).get("status") \
                    == response.status
            self.emitted.append(
                (response, instance.can_send, recorded))
            reply(response)

        self.server.handle(request, watched)


def run_schedule(vcpus, schedule):
    sim = Simulator()
    network = Network(sim)
    instance = Instance(sim, "os-0000", "openstack", IMAGE,
                        Flavor("f", vcpus, 2048, 20))
    instance._mark_running()
    instance.max_queue = 2
    api = RestApi("svc")
    api.get("/fast", lambda request, params: {"ok": True})
    api.get("/slow", lambda request, params: {"ok": True}, cost=0.5)
    api.get("/deferred", lambda request, params: RestDeferred(
        job=Job(cost=0.4, name="render"),
        render=lambda outcome: (200, {"rendered": True})))
    api.post("/runs", lambda request, params: (201, {"run": request.body}))
    index = api.idempotency = IdempotencyIndex(
        sim, BlobStore(sim).create_container("idempotency"))
    emitted = []
    network.register(instance.address,
                     Watched(RestServer(sim, api, instance), index, emitted),
                     instance)
    issued = []

    def send(op, timeout):
        if op[0] == "get":
            request = HttpRequest("GET", op[1])
        else:
            request = HttpRequest("POST", "/v1/runs", body={"v": op[2]},
                                  headers={"Idempotency-Key": op[1]})
        entry = {"at": sim.now, "timeout": timeout, "settled": []}
        network.request(instance.address, request, timeout=timeout).then(
            lambda value: entry["settled"].append((sim.now, value)))
        issued.append(entry)

    def operate():
        for gap, op, timeout in schedule:
            if gap:
                yield gap
            if op[0] == "crash":
                instance._mark_failed("test crash")
            elif op[0] == "blackhole" and instance.is_serving \
                    and not instance.network_blackholed:
                instance._blackhole()
            elif op[0] == "heal" and instance.is_serving:
                instance._heal()
            elif op[0] in ("get", "post"):
                send(op, timeout)

    sim.spawn(operate(), name="schedule")
    sim.run()
    return sim, issued, emitted


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, 2)), st.lists(operations, max_size=25))
@example(1, [(0.0, ("get", "/v1/slow"), 0.2),        # a response late
             (0.0, ("get", "/v1/fast"), 0.03)])      # for its timeout
@example(1, [(0.0, ("get", "/v1/fast"), 0.2),        # answered into
             (0.0, ("blackhole",), 30.0)])           # a blackhole
@example(2, [(0.0, ("get", "/v1/deferred"), 30.0),
             (0.01, ("blackhole",), 30.0),
             (0.3, ("heal",), 30.0),
             (0.0, ("get", "/v1/fast"), 30.0),
             (0.01, ("crash",), 30.0)])
@example(1, [(0.0, ("post", "k0", 0), 30.0),
             (0.0, ("post", "k0", 0), 30.0),         # in flight: 409
             (2.0, ("post", "k0", 0), 30.0),         # replayed
             (0.0, ("post", "k0", 1), 30.0)])        # conflict: 422
def test_every_request_settles_once_and_only_clear_replies_arrive(
        vcpus, schedule):
    sim, issued, emitted = run_schedule(vcpus, schedule)
    assert not sim.failures
    clear = {id(response) for response, ok, _recorded in emitted if ok}
    for entry in issued:
        [(settled_at, value)] = entry["settled"]
        deadline = entry["at"] + entry["timeout"]
        assert settled_at <= deadline
        if isinstance(value, RequestTimeout):
            assert settled_at == deadline
        elif isinstance(value, HttpResponse):
            assert id(value) in clear
        else:
            assert isinstance(value, ConnectionRefused)
    red = obs_of(sim).api_metrics.sub("svc").snapshot()
    assert red.get("requests", 0.0) == len(emitted)
    assert all(recorded for _response, _ok, recorded in emitted)
