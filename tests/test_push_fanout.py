"""The push fan-out: one CPU job per emission, checked against per-frame jobs.

``PushGateway`` emits N frames (a broadcast to N open sockets, or one
push / send) as one host job of N frames' cost plus N arrival events.
The per-frame path it replaced — one job and one delivery closure per
frame — lives on here as the oracle: on a 1-vCPU host, whatever the
interleaving of connects, closes, pushes, sends, blackholes and crashes,
every socket must see the same frames at the same instants, and every
byte, message and busy-second counter must agree.  The event budget is
pinned beside it: a broadcast to N sockets is N + 1 calendar events.

The oracle states the wire's liveness rule on its own: each frame's job
is submitted first; a push leaves only a host that ``can_send`` at that
instant (otherwise nothing is counted and nothing lands); a frame on the
wire lands unless its socket closed; a client's frame lands, and counts
its bytes in, only at a host that ``is_serving`` when it arrives.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud import SMALL, ImageKind, Instance, MachineImage
from repro.cloud.instance import Job
from repro.services import ChannelClosed, PushGateway
from repro.services import channels
from repro.services.transport import WS_FRAME_BYTES, payload_bytes
from repro.sim import RandomStreams, Simulator

# -- the oracle: one job and one closure per frame ---------------------------


class PerFrameGateway(PushGateway):
    """Every frame of an emission charged, jobbed and scheduled alone."""

    def _emit(self, conns, payload, to_client):
        size = payload_bytes(payload) if conns else None
        for conn in conns:
            self._transmit(conn, payload, to_client, size)

    def _transmit(self, conn, payload, to_client, payload_size=None):
        if conn.closed:
            raise ChannelClosed(conn.connection_id)
        if payload_size is None:
            payload_size = payload_bytes(payload)
        frame_bytes = WS_FRAME_BYTES + payload_size
        self.instance.submit(Job(cost=channels.PUSH_CPU_COST, name="ws-frame"))
        if to_client and not self.instance.can_send:
            return  # a dead or dark host sends nothing
        self.metrics.counter("bytes").increment(frame_bytes)
        self.metrics.counter("messages").increment()
        if to_client:
            self.instance.net_bytes_out += frame_bytes
        sent_at = self.sim.now

        def deliver():
            if conn.closed:
                return
            if not to_client:
                if not self.instance.is_serving:
                    return  # a client's frame lands only at a live host
                self.instance.net_bytes_in += frame_bytes
            self.metrics.recorder("delivery_latency").record(
                self.sim.now - sent_at)
            if to_client:
                conn.messages_to_client += 1
                handlers = conn._client_handlers
            else:
                conn.messages_to_server += 1
                handlers = conn._server_handlers
            for handler in handlers:
                handler(payload)

        jitter = self.streams.get("ws.latency").uniform(
            0, channels.PUSH_LATENCY / 2)
        self.sim.schedule(channels.PUSH_LATENCY + jitter, deliver)


def small_host(sim):
    image = MachineImage(image_id="img-0", name="rb", kind=ImageKind.GENERIC)
    inst = Instance(sim, "os-0000", "openstack", image, SMALL)
    inst._mark_running()
    return inst


# -- (a) the event budget ----------------------------------------------------


@pytest.mark.parametrize("sockets", [2, 3, 16, 64])
def test_broadcast_to_n_sockets_is_n_plus_one_events(sockets):
    sim = Simulator()
    gateway = PushGateway(sim, small_host(sim))
    for i in range(sockets + 1):
        gateway.connect(f"user-{i}")
    gateway.connections()[0].close()  # a closed socket costs nothing
    received = []
    for conn in gateway.connections():
        conn.on_client_message(received.append)
    before = sim.events_scheduled
    gateway.broadcast({"channel": "obs", "n": 1})
    sim.run()
    assert len(received) == sockets
    assert sim.events_scheduled - before == sockets + 1


def test_broadcast_to_no_open_socket_is_no_event():
    sim = Simulator()
    gateway = PushGateway(sim, small_host(sim))
    gateway.connect("gone").close()
    before = sim.events_scheduled
    gateway.broadcast({"channel": "obs"})
    sim.run()
    assert sim.events_scheduled == before


def test_lone_push_is_two_events():
    sim = Simulator()
    gateway = PushGateway(sim, small_host(sim))
    conn = gateway.connect("alice")
    gateway.connect("bob")
    before = sim.events_scheduled
    conn.push({"migrate_to": "i-0001.aws.evop"})
    sim.run()
    assert sim.events_scheduled - before == 2
    assert conn.messages_to_client == 1


# -- (b) equivalence with the per-frame path ---------------------------------

GAPS = st.sampled_from([0.0, 0.0001, 0.0003, 0.001, 0.004, 0.02, 1.0])
PAYLOADS = st.one_of(
    st.integers(-5, 5), st.text(max_size=6),
    st.dictionaries(st.sampled_from(["a", "level", "to"]),
                    st.integers(0, 99), max_size=3))
OPS = st.one_of(
    st.tuples(st.just("connect")),
    st.tuples(st.just("close"), st.integers(0, 15)),
    st.tuples(st.just("broadcast"), PAYLOADS),
    st.tuples(st.just("push"), st.integers(0, 15), PAYLOADS),
    st.tuples(st.just("send"), st.integers(0, 15), PAYLOADS),
    st.tuples(st.just("blackhole")),
    st.tuples(st.just("heal")),
    st.tuples(st.just("crash")),
)


def play(gateway_class, schedule, seed):
    """Run ``schedule`` against a fresh gateway; what every party saw."""
    sim = Simulator()
    host = small_host(sim)
    gateway = gateway_class(sim, host, RandomStreams(seed))
    conns = []
    seen = []  # per connection: (direction, time, payload) in arrival order
    refused = []

    def apply(op):
        kind = op[0]
        if kind == "connect":
            conn = gateway.connect(f"user-{len(conns)}")
            log = []
            conn.on_client_message(
                lambda p, log=log: log.append(("down", sim.now, p)))
            conn.on_server_message(
                lambda p, log=log: log.append(("up", sim.now, p)))
            conns.append(conn)
            seen.append(log)
        elif kind == "close" and conns:
            conns[op[1] % len(conns)].close()
        elif kind == "broadcast":
            gateway.broadcast(op[1])
        elif kind in ("push", "send") and conns:
            conn = conns[op[1] % len(conns)]
            try:
                getattr(conn, kind)(op[2])
            except ChannelClosed:
                refused.append((sim.now, conn.connection_id, kind))
        elif kind == "blackhole" and host.is_serving:
            host._blackhole()
        elif kind == "heal" and host.is_serving:
            host._heal()
        elif kind == "crash":
            host._mark_failed("crash")

    at = 0.0
    for gap, op in schedule:
        at += gap
        sim.schedule(at, apply, op)
    sim.run()
    return {
        "seen": seen,
        "refused": refused,
        "messages_to_client": [c.messages_to_client for c in conns],
        "messages_to_server": [c.messages_to_server for c in conns],
        "latency": list(gateway.metrics.recorder("delivery_latency")._values),
        "bytes": gateway.metrics.counter("bytes").value,
        "messages": gateway.metrics.counter("messages").value,
        "net_bytes_out": host.net_bytes_out,
        "net_bytes_in": host.net_bytes_in,
    }, host.cpu_busy_seconds


# overlapping broadcasts of 8 frames each, a blackhole, and a crash while
# the host is still busy with them
BUSY = ([(0.0, ("connect",))] * 5
        + [(0.0001, ("broadcast", {"n": i})) for i in range(5)]
        + [(0.0, ("push", 3, "x")), (0.0, ("send", 5, "y")),
           (0.0, ("blackhole",)), (0.0002, ("broadcast", "dark")),
           (0.0, ("heal",)), (0.0005, ("crash",)),
           (0.0, ("broadcast", "after"))])


@settings(max_examples=200, deadline=None)
@given(schedule=st.lists(st.tuples(GAPS, OPS), max_size=40),
       seed=st.integers(0, 3))
@example(schedule=BUSY, seed=7)
def test_one_job_per_emission_matches_a_job_per_frame(schedule, seed):
    # every schedule opens a few sockets first so most draws fan out
    schedule = [(0.0, ("connect",))] * 3 + schedule
    emitted, busy = play(PushGateway, schedule, seed)
    oracle, oracle_busy = play(PerFrameGateway, schedule, seed)
    assert emitted == oracle
    assert busy == pytest.approx(oracle_busy, rel=1e-9, abs=1e-15)
