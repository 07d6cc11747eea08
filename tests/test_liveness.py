"""One liveness rule, on every wire path.

A message leaves a host only if the host ``can_send`` (up, NIC not
blackholed), asked once as it leaves; a message reaching a host lands
only if the host ``is_serving``; a message already on the wire lands.
The table below puts a host in each condition and drives each wire path
once, and pins the one outcome and the NIC bytes each pair must give:

* ``delivered`` — the message reached its reader;
* ``refused`` — the connection was refused at a dead host;
* ``timeout`` — the request landed but its answer never left;
* ``dropped`` — the message never went on the wire, or never landed.
"""

import pytest

from repro.cloud import SMALL, ImageKind, Instance, MachineImage
from repro.services import HttpRequest, HttpResponse, Network, PollingClient, \
    PushGateway
from repro.services.channels import PUSH_CPU_COST
from repro.services.transport import HTTP_HEADER_BYTES, TCP_ACK_BYTES, \
    WS_FRAME_BYTES, ConnectionRefused, RequestTimeout, payload_bytes
from repro.sim import Simulator

IMAGE = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
CONDITIONS = ("running", "degraded", "blackholed", "crashed", "terminated")
PAYLOAD = {"session": "s-1", "migrate_to": "i-0001.aws.evop"}
FRAME = WS_FRAME_BYTES + payload_bytes(PAYLOAD)
REQUEST = HttpRequest("GET", "/v1/thing")
REQUEST_BYTES = REQUEST.wire_bytes()
RESPONSE = HttpResponse(200, {"ok": True})
POLL_ANSWER = HTTP_HEADER_BYTES + payload_bytes(PAYLOAD)


def running_host(sim):
    host = Instance(sim, "os-0000", "openstack", IMAGE, SMALL)
    host._mark_running()
    return host


def put_in(host, condition):
    if condition == "degraded":
        host._degrade(0.5)
    elif condition == "blackholed":
        host._blackhole()
    elif condition == "crashed":
        host._mark_failed("test crash")
    elif condition == "terminated":
        host._mark_terminated()


class Holder:
    """A server that keeps each request's ``reply`` for the test to call."""

    def __init__(self):
        self.replies = []

    def handle(self, request, reply):
        self.replies.append(reply)


def rest_request(condition, answer):
    """The host enters ``condition``, then a GET is sent to it; with
    ``answer`` the server replies at once, else never.  Returns the
    caller's outcome, whether the request landed, and the wire's bytes."""
    sim = Simulator()
    host = running_host(sim)
    network = Network(sim)
    server = Holder()
    network.register(host.address, server, host)
    put_in(host, condition)
    settled = []
    network.request(host.address, REQUEST, timeout=1.0).then(settled.append)
    sim.run(until=0.5)
    if answer:
        for reply in server.replies:
            reply(RESPONSE)
    sim.run()
    return settled[0], bool(server.replies), network.total_bytes, host


def outcome_of(value):
    if isinstance(value, HttpResponse):
        return "delivered"
    if isinstance(value, ConnectionRefused):
        return "refused"
    assert isinstance(value, RequestTimeout)
    return "timeout"


# -- the paths: each returns (outcome, net_bytes_in, net_bytes_out) ----------


def request_lands(condition):
    value, landed, _total, host = rest_request(condition, answer=False)
    outcome = "delivered" if landed else outcome_of(value)
    return outcome, host.net_bytes_in, host.net_bytes_out


def ack_counted(condition):
    value, landed, total, host = rest_request(condition, answer=False)
    if not landed:
        return outcome_of(value), host.net_bytes_in, host.net_bytes_out
    acked = total - REQUEST_BYTES
    assert acked == host.net_bytes_out  # the wire counts what the NIC sent
    return ("delivered" if acked else "dropped",
            host.net_bytes_in, host.net_bytes_out)


def reply_leaves(condition):
    """The request lands on a running host; the host enters ``condition``
    before its server replies."""
    sim = Simulator()
    host = running_host(sim)
    network = Network(sim)
    server = Holder()
    network.register(host.address, server, host)
    settled = []
    network.request(host.address, REQUEST, timeout=1.0).then(settled.append)
    sim.run(until=0.5)
    put_in(host, condition)
    server.replies[0](RESPONSE)
    sim.run()
    return outcome_of(settled[0]), host.net_bytes_in, host.net_bytes_out


def push_leaves(condition):
    sim = Simulator()
    host = running_host(sim)
    gateway = PushGateway(sim, host)
    received = []
    gateway.connect("alice").on_client_message(received.append)
    bytes_in, bytes_out = host.net_bytes_in, host.net_bytes_out  # handshake
    counted = gateway.metrics.counter("bytes").value
    put_in(host, condition)
    gateway.broadcast(PAYLOAD)
    sim.run()
    sent = gateway.metrics.counter("bytes").value - counted
    assert sent == host.net_bytes_out - bytes_out  # counters follow the NIC
    return ("delivered" if received == [PAYLOAD] else "dropped",
            host.net_bytes_in - bytes_in, host.net_bytes_out - bytes_out)


def send_lands(condition):
    sim = Simulator()
    host = running_host(sim)
    gateway = PushGateway(sim, host)
    conn = gateway.connect("alice")
    received = []
    conn.on_server_message(received.append)
    bytes_in, bytes_out = host.net_bytes_in, host.net_bytes_out  # handshake
    put_in(host, condition)
    conn.send(PAYLOAD)
    sim.run()
    return ("delivered" if received == [PAYLOAD] else "dropped",
            host.net_bytes_in - bytes_in, host.net_bytes_out - bytes_out)


def poll_answered(condition):
    """An update waits in the mailbox; the host enters ``condition``
    before the client's first poll at t=5."""
    sim = Simulator()
    host = running_host(sim)
    poller = PollingClient(sim, host, "bob", interval=5.0)
    received = []
    poller.on_client_message(received.append)
    poller.start()
    poller.push(PAYLOAD)
    sim.schedule(1.0, put_in, host, condition)
    sim.run(until=6.0)
    if received:
        outcome = "delivered"
    else:
        outcome = "timeout" if poller.polls else "refused"
    return outcome, host.net_bytes_in, host.net_bytes_out


PATHS = {
    "rest request lands": request_lands,
    "rest reply leaves": reply_leaves,
    "tcp ack counted": ack_counted,
    "push leaves": push_leaves,
    "client send lands": send_lands,
    "poll answered": poll_answered,
}

ACKED = (REQUEST_BYTES, TCP_ACK_BYTES)
#: (path, condition) -> (outcome, net_bytes_in, net_bytes_out)
EXPECTED = {
    ("rest request lands", "running"): ("delivered", *ACKED),
    ("rest request lands", "degraded"): ("delivered", *ACKED),
    ("rest request lands", "blackholed"): ("delivered", REQUEST_BYTES, 0),
    ("rest request lands", "crashed"): ("refused", 0, 0),
    ("rest request lands", "terminated"): ("refused", 0, 0),

    ("rest reply leaves", "running"):
        ("delivered", REQUEST_BYTES, TCP_ACK_BYTES + RESPONSE.wire_bytes()),
    ("rest reply leaves", "degraded"):
        ("delivered", REQUEST_BYTES, TCP_ACK_BYTES + RESPONSE.wire_bytes()),
    ("rest reply leaves", "blackholed"): ("timeout", *ACKED),
    ("rest reply leaves", "crashed"): ("timeout", *ACKED),
    ("rest reply leaves", "terminated"): ("timeout", *ACKED),

    ("tcp ack counted", "running"): ("delivered", *ACKED),
    ("tcp ack counted", "degraded"): ("delivered", *ACKED),
    ("tcp ack counted", "blackholed"): ("dropped", REQUEST_BYTES, 0),
    ("tcp ack counted", "crashed"): ("refused", 0, 0),
    ("tcp ack counted", "terminated"): ("refused", 0, 0),

    ("push leaves", "running"): ("delivered", 0, FRAME),
    ("push leaves", "degraded"): ("delivered", 0, FRAME),
    ("push leaves", "blackholed"): ("dropped", 0, 0),
    ("push leaves", "crashed"): ("dropped", 0, 0),
    ("push leaves", "terminated"): ("dropped", 0, 0),

    ("client send lands", "running"): ("delivered", FRAME, 0),
    ("client send lands", "degraded"): ("delivered", FRAME, 0),
    ("client send lands", "blackholed"): ("delivered", FRAME, 0),
    ("client send lands", "crashed"): ("dropped", 0, 0),
    ("client send lands", "terminated"): ("dropped", 0, 0),

    ("poll answered", "running"):
        ("delivered", HTTP_HEADER_BYTES, POLL_ANSWER),
    ("poll answered", "degraded"):
        ("delivered", HTTP_HEADER_BYTES, POLL_ANSWER),
    ("poll answered", "blackholed"): ("timeout", HTTP_HEADER_BYTES, 0),
    ("poll answered", "crashed"): ("refused", 0, 0),
    ("poll answered", "terminated"): ("refused", 0, 0),
}


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("path", list(PATHS))
def test_each_path_obeys_the_one_rule(path, condition):
    assert PATHS[path](condition) == EXPECTED[(path, condition)]


@pytest.mark.parametrize("condition,serving,can_send,healthy", [
    ("running", True, True, True),
    ("degraded", True, True, False),
    ("blackholed", True, False, False),
    ("crashed", False, False, False),
    ("terminated", False, False, False),
])
def test_the_predicates(condition, serving, can_send, healthy):
    host = running_host(Simulator())
    put_in(host, condition)
    assert (host.is_serving, host.can_send, host.is_healthy) \
        == (serving, can_send, healthy)


# -- the rule's edges ---------------------------------------------------------


@pytest.mark.parametrize("condition", ["blackholed", "crashed"])
def test_a_frame_on_the_wire_lands_after_its_host_fails(condition):
    sim = Simulator()
    host = running_host(sim)
    gateway = PushGateway(sim, host)
    received = []
    gateway.connect("alice").on_client_message(received.append)
    gateway.broadcast(PAYLOAD)
    put_in(host, condition)  # the frame already left
    sim.run()
    assert received == [PAYLOAD]


def test_a_dark_host_runs_the_push_job_and_a_dead_one_refuses_it():
    sim = Simulator()
    dark, dead = running_host(sim), running_host(sim)
    for host, condition in ((dark, "blackholed"), (dead, "crashed")):
        gateway = PushGateway(sim, host)
        gateway.connect("alice")
        put_in(host, condition)
        gateway.broadcast(PAYLOAD)
    sim.run()
    assert (dark.jobs_completed, dark.jobs_failed) == (1, 0)
    assert dark.cpu_busy_seconds == pytest.approx(
        PUSH_CPU_COST / dark.effective_speed)
    assert (dead.jobs_completed, dead.jobs_failed) == (0, 1)


def test_a_dark_poll_leaves_the_mailbox_for_the_next_answered_poll():
    sim = Simulator()
    host = running_host(sim)
    poller = PollingClient(sim, host, "bob", interval=5.0)
    received = []
    poller.on_client_message(received.append)
    poller.start()
    sim.schedule(1.0, poller.push, PAYLOAD)
    sim.schedule(2.0, host._blackhole)
    sim.schedule(6.0, host._heal)
    sim.run(until=11.0)
    assert poller.polls == 2
    assert received == [PAYLOAD]
    # enqueued at 1, missed by the dark poll at 5, answered at 10
    assert poller.metrics.recorder("delivery_latency").mean() \
        == pytest.approx(9.0)
    assert poller.metrics.counter("messages").value == 3
