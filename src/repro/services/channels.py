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
  optional keepalive pings.  The host pays one CPU job per emission of N
  frames (a broadcast, or one push / send): N + 1 calendar events, not 2N.
* :class:`PollingClient` — each poll is a full HTTP exchange whether or
  not updates are pending; delivery waits for the next poll tick.

Byte and CPU costs are charged to the hosting instance, so heavy polling
visibly loads the broker VM.  Both keep the wire's liveness rule
(:mod:`repro.services.transport`): a push, ping or poll answer leaves only
a host that ``can_send`` (else nothing is counted), a client's frame or
poll lands only at one that ``is_serving``, and a sent frame lands.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cloud.instance import Instance, Job, ignore
from repro.services.transport import HTTP_HEADER_BYTES, WS_FRAME_BYTES, payload_bytes
from repro.sim import MetricsRegistry, RandomStreams, Simulator, TimeSeriesRecorder


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
        self.connection_id = f"ws-{gateway.sim.next_id('ws'):06d}"
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

    def push(self, payload: Any) -> None:
        """Server → client frame."""
        if self.closed:
            raise ChannelClosed(self.connection_id)
        self.gateway._emit([self], payload, True)

    def send(self, payload: Any) -> None:
        """Client → server frame."""
        if self.closed:
            raise ChannelClosed(self.connection_id)
        self.gateway._emit([self], payload, False)

    def close(self) -> None:
        """Close the connection; later frames raise :class:`ChannelClosed`."""
        if not self.closed:
            self.closed = True
            self.gateway._closed(self)

    def _deliver(self, payload: Any, to_client: bool, frame: int,
                 sent_at: float, recorder: TimeSeriesRecorder) -> None:
        """A frame lands unless the socket closed; a client's ``frame``
        bytes land only at a serving host, which counts them in."""
        if self.closed or not (to_client or self.gateway.instance.is_serving):
            return
        recorder.record(self.gateway.sim.now - sent_at)
        if to_client:
            self.messages_to_client += 1
            handlers = self._client_handlers
        else:
            self.gateway.instance.record_bytes_in(frame)
            self.messages_to_server += 1
            handlers = self._server_handlers
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
        self._emit(self.connections(), payload, True)

    def _emit(self, conns: List[WebSocketConnection], payload: Any,
              to_client: bool) -> None:
        """One frame of ``payload`` to each of ``conns``: one CPU job for
        all (nothing waits on it); a push then leaves only if it can send."""
        if not conns:
            return
        frames = len(conns)
        self.instance.submit(Job(cost=frames * PUSH_CPU_COST, name="ws-frame"),
                             ignore)
        frame = WS_FRAME_BYTES + payload_bytes(payload)
        if to_client and not self.instance.record_bytes_out(frames * frame):
            return  # a dead or dark host puts nothing on the wire
        self.metrics.counter("bytes").increment(frames * frame)
        self.metrics.counter("messages").increment(frames)
        sent_at = self.sim.now
        recorder = self.metrics.recorder("delivery_latency")
        jitter = self.streams.get("ws.latency").uniform
        schedule = self.sim.schedule
        for conn in conns:
            schedule(PUSH_LATENCY + jitter(0, PUSH_LATENCY / 2), conn._deliver,
                     payload, to_client, frame, sent_at, recorder)

    def _closed(self, conn: WebSocketConnection) -> None:
        self.metrics.gauge("connections").add(-1)

    def _ping_loop(self, conn: WebSocketConnection):
        while not conn.closed and self.instance.is_serving:
            yield self.ping_interval
            if conn.closed or not self.instance.is_serving:
                return
            if self.instance.record_bytes_out(WS_FRAME_BYTES):  # the ping
                self.instance.record_bytes_in(WS_FRAME_BYTES)   # its pong
                self.metrics.counter("bytes").increment(2 * WS_FRAME_BYTES)
                self.metrics.counter("messages").increment(2)


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
            self.instance.record_bytes_in(HTTP_HEADER_BYTES)
            self.instance.submit(Job(cost=POLL_CPU_COST, name="poll"), ignore)
            response_bytes = HTTP_HEADER_BYTES + sum(
                payload_bytes(p) for _t, p in self._pending)
            answered = self.instance.record_bytes_out(response_bytes)
            self.metrics.counter("bytes").increment(
                HTTP_HEADER_BYTES + answered * response_bytes)
            self.metrics.counter("messages").increment(1 + answered)
            if not answered:
                continue  # a dark host's answer never leaves; the mailbox waits
            drained = list(self._pending)
            self._pending.clear()
            for enqueued_at, payload in drained:
                self.updates_delivered += 1
                self.metrics.recorder("delivery_latency").record(
                    self.sim.now - enqueued_at)
                for handler in self._client_handlers:
                    handler(payload)
