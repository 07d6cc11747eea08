"""Session-update channels: WebSocket push versus periodic polling.

Section IV-D: WebSockets give "event-based asynchronous duplex
communication without the need for periodic polling or streaming, which
are costly and inefficient modes of background browser traffic exchange.
This reduces network overhead and browser memory usage, and enables RB to
manipulate the user session more efficiently."

Both strategies implement the same contract — the server pushes session
updates, the client eventually observes them — so the WS benchmark can
compare bytes, message counts and notification latency like-for-like:

* :class:`PushGateway` / :class:`WebSocketConnection` — frames cost
  ``WS_FRAME_BYTES`` + payload; delivery after one network latency;
  optional keepalive pings.
* :class:`PollingClient` — each poll is a full HTTP exchange whether or
  not updates are pending; delivery waits for the next poll tick.

Byte and CPU costs are charged to the hosting instance, so heavy polling
visibly loads the broker VM.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cloud.instance import Instance, Job
from repro.services.transport import HTTP_HEADER_BYTES, WS_FRAME_BYTES, payload_bytes
from repro.sim import MetricsRegistry, RandomStreams, Simulator

_conn_ids = itertools.count()

#: CPU charge on the host for accepting/answering one poll request.
POLL_CPU_COST = 0.002
#: CPU charge on the host for emitting one push frame.
PUSH_CPU_COST = 0.0002
#: One-way latency of a push frame before jitter, in seconds.
PUSH_LATENCY = 0.012


class ChannelClosed(Exception):
    """Raised when using a connection after it was closed."""


class WebSocketConnection:
    """One duplex connection between a client and the gateway."""

    def __init__(self, gateway: "PushGateway", client_name: str):
        self.gateway = gateway
        self.connection_id = f"ws-{next(_conn_ids):06d}"
        self.client_name = client_name
        self.closed = False
        self._client_handlers: List[Callable[[Any], None]] = []
        self._server_handlers: List[Callable[[Any], None]] = []
        self.messages_to_client = 0
        self.messages_to_server = 0

    def on_client_message(self, handler: Callable[[Any], None]) -> None:
        """Register a client-side handler for pushed payloads."""
        self._client_handlers.append(handler)

    def on_server_message(self, handler: Callable[[Any], None]) -> None:
        """Register a server-side handler for client sends."""
        self._server_handlers.append(handler)

    def push(self, payload: Any, payload_size: Optional[int] = None) -> None:
        """Server → client frame (``payload_size`` when already measured)."""
        self.gateway._transmit(self, payload, True, payload_size)

    def send(self, payload: Any) -> None:
        """Client → server frame."""
        self.gateway._transmit(self, payload, to_client=False)

    def close(self) -> None:
        """Close the connection; later frames raise :class:`ChannelClosed`."""
        if not self.closed:
            self.closed = True
            self.gateway._closed(self)

    def _deliver(self, payload: Any, to_client: bool) -> None:
        handlers = self._client_handlers if to_client else self._server_handlers
        if to_client:
            self.messages_to_client += 1
        else:
            self.messages_to_server += 1
        for handler in handlers:
            handler(payload)


class PushGateway:
    """Server side of the WebSocket channel, bound to a host instance."""

    def __init__(self, sim: Simulator, instance: Instance,
                 streams: Optional[RandomStreams] = None,
                 ping_interval: Optional[float] = None):
        self.sim = sim
        self.instance = instance
        self.streams = streams or RandomStreams()
        self.ping_interval = ping_interval
        self.metrics = MetricsRegistry(sim, namespace="channel.ws")
        self._connections: Dict[str, WebSocketConnection] = {}

    def connect(self, client_name: str) -> WebSocketConnection:
        """Open a connection; charges a handshake exchange."""
        conn = WebSocketConnection(self, client_name)
        self._connections[conn.connection_id] = conn
        handshake = 2 * HTTP_HEADER_BYTES  # HTTP upgrade round trip
        self.instance.record_bytes_in(HTTP_HEADER_BYTES)
        self.instance.record_bytes_out(HTTP_HEADER_BYTES)
        self.metrics.counter("bytes").increment(handshake)
        self.metrics.counter("messages").increment(2)
        self.metrics.gauge("connections").add(1)
        if self.ping_interval is not None:
            self.sim.spawn(self._ping_loop(conn), name=f"ws.ping.{conn.connection_id}")
        return conn

    def connections(self) -> List[WebSocketConnection]:
        """Open connections."""
        return [c for c in self._connections.values() if not c.closed]

    def broadcast(self, payload: Any) -> None:
        """Push ``payload`` to every open connection."""
        # one frame, many sockets: serialise it once, not per connection
        size = payload_bytes(payload)
        for conn in self.connections():
            conn.push(payload, size)

    def _transmit(self, conn: WebSocketConnection, payload: Any,
                  to_client: bool, payload_size: Optional[int] = None) -> None:
        if conn.closed:
            raise ChannelClosed(conn.connection_id)
        if payload_size is None:
            payload_size = payload_bytes(payload)
        frame_bytes = WS_FRAME_BYTES + payload_size
        self.metrics.counter("bytes").increment(frame_bytes)
        self.metrics.counter("messages").increment()
        if to_client:
            self.instance.record_bytes_out(frame_bytes)
        else:
            self.instance.record_bytes_in(frame_bytes)
        self.instance.submit(Job(cost=PUSH_CPU_COST, name="ws-frame"))
        sent_at = self.sim.now

        def deliver() -> None:
            if conn.closed:
                return
            if to_client and self.instance.network_blackholed:
                return
            self.metrics.recorder("delivery_latency").record(self.sim.now - sent_at)
            conn._deliver(payload, to_client)

        jitter = self.streams.get("ws.latency").uniform(0, PUSH_LATENCY / 2)
        self.sim.schedule(PUSH_LATENCY + jitter, deliver)

    def _closed(self, conn: WebSocketConnection) -> None:
        self.metrics.gauge("connections").add(-1)

    def _ping_loop(self, conn: WebSocketConnection):
        while not conn.closed and self.instance.is_serving:
            yield self.ping_interval
            if conn.closed or not self.instance.is_serving:
                return
            ping_bytes = 2 * WS_FRAME_BYTES  # ping + pong
            self.metrics.counter("bytes").increment(ping_bytes)
            self.metrics.counter("messages").increment(2)
            self.instance.record_bytes_out(WS_FRAME_BYTES)
            self.instance.record_bytes_in(WS_FRAME_BYTES)


class PollingClient:
    """Periodic-poll alternative to the push channel.

    The server side is a mailbox of pending updates per client; each poll
    round-trips full HTTP headers and drains the mailbox.  Notification
    latency is therefore uniform(0, interval) + transfer, and idle
    clients still cost two header blocks per tick — the inefficiency the
    paper avoids.
    """

    def __init__(self, sim: Simulator, instance: Instance, client_name: str,
                 interval: float = 5.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.instance = instance
        self.client_name = client_name
        self.interval = interval
        self.metrics = metrics or MetricsRegistry(sim, namespace="channel.poll")
        self._pending: Deque[Tuple[float, Any]] = deque()
        self._client_handlers: List[Callable[[Any], None]] = []
        self._running = False
        self.polls = 0
        self.updates_delivered = 0

    def on_client_message(self, handler: Callable[[Any], None]) -> None:
        """Register a client-side handler for delivered updates."""
        self._client_handlers.append(handler)

    def push(self, payload: Any) -> None:
        """Server enqueues an update for the client's next poll."""
        self._pending.append((self.sim.now, payload))

    def start(self) -> None:
        """Begin the poll loop."""
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._poll_loop(), name=f"poll.{self.client_name}")

    def stop(self) -> None:
        """Stop polling after the current tick."""
        self._running = False

    def _poll_loop(self):
        while self._running:
            yield self.interval
            if not self._running or not self.instance.is_serving:
                return
            self.polls += 1
            drained = list(self._pending)
            self._pending.clear()
            request_bytes = HTTP_HEADER_BYTES
            response_bytes = HTTP_HEADER_BYTES + sum(
                payload_bytes(p) for _t, p in drained)
            self.instance.record_bytes_in(request_bytes)
            self.instance.record_bytes_out(response_bytes)
            self.metrics.counter("bytes").increment(request_bytes + response_bytes)
            self.metrics.counter("messages").increment(2)
            self.instance.submit(Job(cost=POLL_CPU_COST, name="poll"))
            for enqueued_at, payload in drained:
                self.updates_delivered += 1
                self.metrics.recorder("delivery_latency").record(
                    self.sim.now - enqueued_at)
                for handler in self._client_handlers:
                    handler(payload)
