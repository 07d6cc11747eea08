"""Bounded structured event log for infrastructure happenings.

Traces answer "where did this request's time go"; the event log answers
"what was the fabric doing meanwhile" — instance lifecycle transitions,
Load Balancer decisions, fault detections, cloudburst transitions.
Events are flat dicts with a simulated timestamp and a dotted ``kind``,
kept in a bounded deque so soak runs cannot grow without bound.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.sim.kernel import Simulator

#: How many events one log retains.
MAX_EVENTS = 20_000


class Event:
    """One structured happening at a simulated instant."""

    __slots__ = ("t", "kind", "fields")

    def __init__(self, t: float, kind: str, fields: Dict[str, Any]):
        self.t = t
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """Flat-dict form (the JSONL exporter's row)."""
        out = {"t": self.t, "kind": self.kind}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event {self.kind} t={self.t:.3f} {self.fields}>"


class EventLog:
    """Bounded, queryable log of :class:`Event` records."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._events: Deque[Event] = deque(maxlen=MAX_EVENTS)
        self.dropped = 0
        self.total_emitted = 0
        self._drop_marker: Optional[Event] = None

    def emit(self, kind: str, **fields: Any) -> Event:
        """Record an event of ``kind`` at the current simulated time.

        The first time the bounded deque overflows, a one-shot
        ``events.dropped`` warning event is pinned at the truncation
        horizon — timestamped with the first discarded event, like a
        journal's "log begins here" marker — so truncation is never
        invisible in exports or queries.  The marker rides outside the
        ring: it neither displaces a retained event nor counts toward
        ``dropped``/``total_emitted``.
        """
        event = Event(self.sim.now, kind, fields)
        if len(self._events) == self._events.maxlen:
            if self._drop_marker is None:
                oldest = self._events[0]
                self._drop_marker = Event(oldest.t, "events.dropped", {
                    "max_events": self._events.maxlen,
                    "dropped": 0,
                    "detail": "event log at capacity; oldest events are "
                              "being discarded"})
            self.dropped += 1
        self._events.append(event)
        self.total_emitted += 1
        return event

    @property
    def drop_marker(self) -> Optional[Event]:
        """The pinned truncation marker, if the log ever overflowed."""
        if self._drop_marker is not None:
            self._drop_marker.fields["dropped"] = self.dropped
        return self._drop_marker

    def events(self, kind: Optional[str] = None,
               since: Optional[float] = None) -> List[Event]:
        """Events, optionally filtered by kind prefix and start time.

        ``kind`` matches exactly or as a dotted prefix: ``"instance"``
        matches ``instance.running`` and ``instance.failed``.  A pinned
        ``events.dropped`` marker (see :meth:`emit`) leads the result
        when it passes the same filters.
        """
        out = list(self._events)
        marker = self.drop_marker
        if marker is not None:
            out.insert(0, marker)
        if kind is not None:
            prefix = kind + "."
            out = [e for e in out
                   if e.kind == kind or e.kind.startswith(prefix)]
        if since is not None:
            out = [e for e in out if e.t >= since]
        return out

    def counts(self) -> Dict[str, int]:
        """How many retained events of each kind."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self._events)
