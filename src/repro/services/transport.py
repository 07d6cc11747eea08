"""Simulated request/response network.

Every client→service interaction in the reproduction flows through a
:class:`Network`: it adds propagation latency, accounts bytes against the
hosting instance's NIC counters, and reproduces the failure behaviours the
broker must handle:

* requests to a dead instance are *refused* (fast failure),
* requests to a blackholed instance are *received but never answered*
  (the caller times out — the paper's "zero outbound while receiving
  inbound" signature),
* responses from an instance that dies mid-request are lost.

Payload sizes are estimated structurally so benches can compare wire
overheads of REST, SOAP, WebSocket frames and polling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.cloud.instance import Instance
from repro.obs.context import extract_context, inject_context
from repro.obs.hub import obs_of
from repro.services.envelope import problem
from repro.sim import RandomStreams, Signal, Simulator
from repro.tenancy.context import TENANT_HEADER

#: Approximate HTTP header block, bytes.
HTTP_HEADER_BYTES = 220
#: Extra envelope weight of a SOAP message over plain HTTP, bytes.
SOAP_ENVELOPE_BYTES = 540
#: WebSocket frame header, bytes.
WS_FRAME_BYTES = 6
#: Transport-level acknowledgement emitted on receipt of a request.  A
#: healthy instance always acks inbound traffic even while a long model
#: run delays the application response — which is exactly what lets the
#: Load Balancer's "zero outbound while receiving inbound" heuristic
#: single out genuinely blackholed NICs (acks are suppressed with the
#: rest of the transmit path).
TCP_ACK_BYTES = 40
#: Default client-side request timeout, seconds.
DEFAULT_TIMEOUT = 30.0


def payload_bytes(body: Any) -> int:
    """Estimate the serialised size of a message body in bytes."""
    if body is None:
        return 0
    if isinstance(body, (str, bytes, bytearray)):
        return len(body)
    if not body and isinstance(body, (dict, list)):
        return 2  # "{}" / "[]": most requests carry an empty query
    try:
        return len(json.dumps(body, default=str))
    except (TypeError, ValueError):
        return len(repr(body))


@dataclass
class HttpRequest:
    """A request on the simulated wire."""

    method: str
    path: str
    body: Any = None
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    def wire_bytes(self) -> int:
        """Bytes this request occupies on the wire."""
        return HTTP_HEADER_BYTES + payload_bytes(self.body) + payload_bytes(self.query)


@dataclass
class HttpResponse:
    """A response on the simulated wire."""

    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the status is a 2xx."""
        return 200 <= self.status < 300

    def wire_bytes(self) -> int:
        """Bytes this response occupies on the wire."""
        return HTTP_HEADER_BYTES + payload_bytes(self.body)


@dataclass
class ConnectionRefused:
    """Delivered to the caller when the target address is not serving."""

    address: str


@dataclass
class RequestTimeout:
    """Delivered to the caller when no response arrived in time."""

    address: str
    after_seconds: float


class Network:
    """Routes requests to servers registered at instance addresses.

    A *server* here is any object with ``handle(request) -> Signal``
    returning a signal eventually fired with an :class:`HttpResponse`
    (both REST and SOAP engines satisfy this).  Each server is bound to
    the :class:`~repro.cloud.instance.Instance` hosting it so that byte
    counters and liveness checks hit the right VM.
    """

    def __init__(self, sim: Simulator, streams: Optional[RandomStreams] = None,
                 base_latency: float = 0.012, latency_jitter: float = 0.006):
        self.sim = sim
        self.streams = streams or RandomStreams()
        self.base_latency = base_latency
        self.latency_jitter = latency_jitter
        self._endpoints: Dict[str, tuple] = {}  # address -> (server, instance)
        self._partitions: set = set()           # frozenset({a, b}) pairs
        self.total_requests = 0
        self.total_bytes = 0.0

    def register(self, address: str, server: Any, instance: Instance) -> None:
        """Expose ``server`` at ``address``, hosted on ``instance``."""
        self._endpoints[address] = (server, instance)

    def unregister(self, address: str) -> None:
        """Remove the endpoint at ``address`` (idempotent)."""
        self._endpoints.pop(address, None)

    def is_registered(self, address: str) -> bool:
        """Whether anything is exposed at ``address``."""
        return address in self._endpoints

    def partition(self, a: str, b: str) -> None:
        """Cut connectivity between ``a`` and ``b`` (both directions).

        Partitioned traffic is *dropped*, not refused: the caller sees a
        timeout, exactly like a blackholed NIC — which is what makes
        split-brain scenarios interesting for lease-based ownership.
        """
        self._partitions.add(frozenset((a, b)))

    def heal_partition(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b`` (idempotent)."""
        self._partitions.discard(frozenset((a, b)))

    def is_partitioned(self, a: str, b: str) -> bool:
        """Whether traffic between ``a`` and ``b`` is currently cut."""
        return frozenset((a, b)) in self._partitions

    def _latency(self) -> float:
        jitter = self.streams.get("network.latency").uniform(0, self.latency_jitter)
        return self.base_latency + jitter

    def request(self, address: str, request: HttpRequest,
                timeout: float = DEFAULT_TIMEOUT,
                extra_request_bytes: int = 0,
                extra_response_bytes: int = 0,
                source: Optional[str] = None) -> Signal:
        """Send ``request`` to ``address``.

        Returns a signal fired with an :class:`HttpResponse`, a
        :class:`ConnectionRefused` or a :class:`RequestTimeout`.  The
        ``extra_*_bytes`` hooks let protocol layers (SOAP envelopes)
        charge their framing overhead without re-implementing routing.
        ``source`` is the caller's address, used only to honour network
        partitions — partitioned traffic is dropped (timeout), never
        refused.
        """
        reply = self.sim.signal("net.reply")
        self.total_requests += 1
        request_bytes = request.wire_bytes() + extra_request_bytes
        self.total_bytes += request_bytes

        # distributed tracing: requests carrying a traceparent get a
        # client span; its own context rides the headers so the serving
        # side continues the same trace.  Untraced traffic pays nothing.
        parent_context = extract_context(request.headers)
        if parent_context is not None:
            attributes = {"address": address, "bytes": request_bytes}
            # tenant baggage rides the headers exactly like traceparent;
            # the client span carries the label so a trace is filterable
            # by tenant at every hop
            tenant = request.headers.get(TENANT_HEADER)
            if tenant is not None:
                attributes["tenant"] = tenant
            span = obs_of(self.sim).tracer.start_span(
                f"http {request.method} {request.path}",
                parent=parent_context, kind="client",
                attributes=attributes)
            inject_context(span.context, request.headers)

            def client_watch(outcome: Any) -> None:
                if isinstance(outcome, HttpResponse):
                    span.set_attribute("status", outcome.status)
                    span.finish(error=None if outcome.status < 500
                                else f"http {outcome.status}")
                elif isinstance(outcome, ConnectionRefused):
                    span.finish(error="connection refused")
                elif isinstance(outcome, RequestTimeout):
                    span.finish(error=f"timeout after "
                                      f"{outcome.after_seconds:.0f}s")
                else:
                    span.finish(error=f"no response: {outcome!r}")

            reply.then(client_watch)

        # Every path that can complete this request funnels through one
        # settle helper: it cancels the timeout timer and fires the reply
        # only if nothing else fired first.  The guard is what makes the
        # timeout race safe — a slow response crossing the wire while the
        # timer pops (or a blackholed instance recovering and answering
        # long after the caller gave up) must never double-fire the
        # one-shot reply signal.
        timeout_handle = self.sim.schedule(timeout, self._settle, reply, None,
                                           RequestTimeout(address=address,
                                                          after_seconds=timeout))

        def deliver() -> None:
            if source is not None and self.is_partitioned(source, address):
                return  # dropped on the floor; the timeout settles it
            endpoint = self._endpoints.get(address)
            if endpoint is None:
                self._settle(reply, timeout_handle,
                             ConnectionRefused(address=address))
                return
            server, instance = endpoint
            if not instance.is_serving:
                self._settle(reply, timeout_handle,
                             ConnectionRefused(address=address))
                return
            instance.record_bytes_in(request_bytes)
            instance.record_bytes_out(TCP_ACK_BYTES)  # ack; dropped if blackholed
            if not instance.network_blackholed:
                self.total_bytes += TCP_ACK_BYTES

            def respond(response: Any) -> None:
                if not isinstance(response, HttpResponse):
                    response = HttpResponse(status=500, body=problem(
                        500, "bad handler",
                        "handler produced no HttpResponse", retryable=False))
                response_bytes = response.wire_bytes() + extra_response_bytes
                if not instance.is_serving or instance.network_blackholed:
                    # response never makes it onto the wire; caller times out
                    return
                if (source is not None
                        and self.is_partitioned(source, address)):
                    # partition opened mid-request: the response is lost
                    return
                instance.record_bytes_out(response_bytes)
                self.total_bytes += response_bytes
                if not reply.fired:
                    # a response later than the caller's timeout has
                    # paid its wire bytes but must not re-fire
                    self.sim.schedule(self._latency(), self._settle, reply,
                                      timeout_handle, response)

            server.handle(request).then(respond)

        self.sim.schedule(self._latency(), deliver)
        return reply

    @staticmethod
    def _settle(signal: Signal, timeout_handle: Optional[Any],
                value: Any) -> None:
        """Fire ``signal`` with ``value`` unless it already settled."""
        if timeout_handle is not None:
            timeout_handle.cancel()
        if not signal.fired:
            signal.fire(value)
