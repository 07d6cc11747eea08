"""Unit tests for WebSocket push vs polling channels."""

import pytest

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.services import ChannelClosed, PollingClient, PushGateway
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def make_instance(sim):
    image = MachineImage(image_id="img-0", name="rb", kind=ImageKind.GENERIC)
    inst = Instance(sim, "os-0000", "openstack", image, Flavor("f", 2, 2048, 20))
    inst._mark_running()
    return inst


def test_push_delivers_with_small_latency(sim):
    gateway = PushGateway(sim, make_instance(sim))
    conn = gateway.connect("alice")
    received = []
    conn.on_client_message(received.append)
    sim.schedule(1.0, conn.push, {"migrate_to": "i-0001.aws.evop"})
    sim.run()
    assert received == [{"migrate_to": "i-0001.aws.evop"}]
    latency = gateway.metrics.recorder("delivery_latency").mean()
    assert 0 < latency < 0.05


def test_client_send_reaches_server_handler(sim):
    gateway = PushGateway(sim, make_instance(sim))
    conn = gateway.connect("alice")
    events = []
    conn.on_server_message(events.append)
    sim.schedule(0.5, conn.send, {"event": "session_end"})
    sim.run()
    assert events == [{"event": "session_end"}]


def test_closed_connection_rejects_frames(sim):
    gateway = PushGateway(sim, make_instance(sim))
    conn = gateway.connect("alice")
    conn.close()
    with pytest.raises(ChannelClosed):
        conn.push({"x": 1})
    assert gateway.connections() == []


def test_broadcast_hits_all_open_connections(sim):
    gateway = PushGateway(sim, make_instance(sim))
    received = {"a": [], "b": []}
    conn_a = gateway.connect("a")
    conn_a.on_client_message(received["a"].append)
    conn_b = gateway.connect("b")
    conn_b.on_client_message(received["b"].append)
    conn_b.close()
    gateway.broadcast("update")
    sim.run()
    assert received["a"] == ["update"]
    assert received["b"] == []


def test_idle_push_connection_costs_nothing_without_pings(sim):
    instance = make_instance(sim)
    gateway = PushGateway(sim, instance)
    gateway.connect("alice")
    baseline = gateway.metrics.counter("bytes").value  # handshake only
    sim.run(until=3600.0)
    assert gateway.metrics.counter("bytes").value == baseline


def test_pings_cost_two_frames_per_interval(sim):
    instance = make_instance(sim)
    gateway = PushGateway(sim, instance, ping_interval=30.0)
    gateway.connect("alice")
    before = gateway.metrics.counter("messages").value
    sim.run(until=301.0)
    # 10 ping/pong pairs in 300s
    assert gateway.metrics.counter("messages").value == before + 20


def test_polling_delivers_on_next_tick(sim):
    instance = make_instance(sim)
    poller = PollingClient(sim, instance, "bob", interval=5.0)
    received = []
    poller.on_client_message(received.append)
    poller.start()
    sim.schedule(6.0, poller.push, "update")
    sim.run(until=20.0)
    assert received == ["update"]
    # delivered at the t=10 poll, 4s after enqueue
    assert poller.metrics.recorder("delivery_latency").mean() == pytest.approx(4.0)


def test_idle_polling_still_costs_bytes(sim):
    instance = make_instance(sim)
    poller = PollingClient(sim, instance, "bob", interval=5.0)
    poller.start()
    sim.run(until=100.0)
    assert poller.polls == 20
    assert poller.metrics.counter("bytes").value > 0
    assert instance.net_bytes_in > 0


def test_polling_stop_halts_loop(sim):
    instance = make_instance(sim)
    poller = PollingClient(sim, instance, "bob", interval=5.0)
    poller.start()
    sim.schedule(22.0, poller.stop)
    sim.run(until=100.0)
    assert poller.polls == 4


def test_push_cheaper_than_polling_for_sparse_updates(sim):
    """The paper's WebSocket rationale, at unit-test scale."""
    instance = make_instance(sim)
    gateway = PushGateway(sim, instance)
    conn = gateway.connect("ws-user")
    poller = PollingClient(sim, instance, "poll-user", interval=5.0)
    poller.start()
    # one update per hour for each
    for hour in range(1, 4):
        sim.schedule(hour * 3600.0, conn.push, {"n": hour})
        sim.schedule(hour * 3600.0, poller.push, {"n": hour})
    sim.run(until=4 * 3600.0)
    ws_bytes = gateway.metrics.counter("bytes").value
    poll_bytes = poller.metrics.counter("bytes").value
    assert poll_bytes > 20 * ws_bytes


def test_broadcast_measures_its_frame_once(sim, monkeypatch):
    from repro.services import channels

    instance = make_instance(sim)
    gateway = PushGateway(sim, instance)
    received = []
    for name in ("a", "b", "c"):
        gateway.connect(name).on_client_message(received.append)
    sized = []
    measure = channels.payload_bytes
    monkeypatch.setattr(channels, "payload_bytes",
                        lambda body: sized.append(body) or measure(body))
    payload = {"type": "alert", "level": 3}
    bytes_before = gateway.metrics.counter("bytes").value
    out_before = instance.net_bytes_out
    gateway.broadcast(payload)
    sim.run()
    assert sized == [payload]
    assert received == [payload] * 3
    # every socket still pays for its own copy of the frame
    frame = channels.WS_FRAME_BYTES + measure(payload)
    assert gateway.metrics.counter("bytes").value - bytes_before == 3 * frame
    assert instance.net_bytes_out - out_before == 3 * frame
    # a lone push still measures for itself
    gateway.connections()[0].push(payload)
    assert len(sized) == 2
