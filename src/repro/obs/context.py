"""Trace context and its propagation over the simulated wire.

A :class:`SpanContext` is the (trace id, span id) pair that names a
position in one distributed trace.  Propagation follows the W3C Trace
Context shape — a single ``traceparent`` header carried in the plain
``headers`` dict of the simulated :class:`~repro.services.transport.HttpRequest`
— so the transport layer needs no new fields and any protocol stacked on
HTTP (REST, WPS, SOAP) inherits propagation for free.

Ids are minted by the simulator the tracer serves
(``Simulator.next_id``), not drawn at random: given the same seed and
workload a simulation replays identically, and its traces do too, in
any process (the benchmark harness depends on it).
"""

from __future__ import annotations

from typing import Dict, Optional

#: Header key used to carry trace context across the simulated network.
TRACEPARENT_HEADER = "traceparent"


class SpanContext:
    """Immutable position in a trace: which trace, which span."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_traceparent(self) -> str:
        """Serialise as a ``traceparent`` header value."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, value: str) -> Optional["SpanContext"]:
        """Parse a ``traceparent`` header value (None if malformed)."""
        parts = value.split("-")
        if len(parts) != 4 or parts[0] != "00":
            return None
        trace_id, span_id = parts[1], parts[2]
        if len(trace_id) != 32 or len(span_id) != 16:
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SpanContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SpanContext {self.trace_id[-8:]}/{self.span_id[-8:]}>"


def inject_context(context: Optional[SpanContext],
                   headers: Dict[str, str]) -> Dict[str, str]:
    """Write ``context`` into ``headers`` (no-op when context is None)."""
    if context is not None:
        headers[TRACEPARENT_HEADER] = context.to_traceparent()
    return headers


def extract_context(headers: Dict[str, str]) -> Optional[SpanContext]:
    """Read a :class:`SpanContext` out of ``headers``, if one is present."""
    raw = headers.get(TRACEPARENT_HEADER)
    if not raw:
        return None
    return SpanContext.from_traceparent(raw)
