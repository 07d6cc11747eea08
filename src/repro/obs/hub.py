"""The shared Observability hub, one per simulator.

Subsystems never construct tracers or event logs themselves; they call
:func:`obs_of` with the simulator they already hold, and every subsystem
sharing that simulator shares one hub — which is exactly what lets a
single trace id cross the broker, the network, an instance and a
workflow engine.

The hub also owns two registries.  ``api_metrics`` is where REST
servers record per-API, per-tenant request counters and duration
histograms: server-side RED metrics need a home that exists before any
deployment wiring, for the same reason the tracer does.  ``metrics``
holds the ``refused`` family (:mod:`.refusal`) and the hub's retention
gauges (``events.dropped``, ``spans.dropped``), read live on sampling.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricsRegistry

_HUB_ATTR = "_obs_hub"


class Observability:
    """A tracer plus an event log bound to one simulated clock."""

    def __init__(self, sim: Simulator, max_spans: int = 100_000,
                 max_events: int = 20_000):
        self.sim = sim
        self.tracer = Tracer(sim, max_spans=max_spans)
        self.events = EventLog(sim, max_events=max_events)
        self.api_metrics = MetricsRegistry(sim, namespace="rest")
        self.metrics = MetricsRegistry(sim, namespace="obs")
        self.metrics.callback_gauge("events.dropped",
                                    lambda: self.events.dropped)
        self.metrics.callback_gauge("spans.dropped",
                                    lambda: self.tracer.dropped)

    def snapshot(self) -> Dict[str, Any]:
        """Retention health: what was kept, what was silently shed.

        Both the tracer and the event log are bounded; this is where
        truncation becomes visible instead of being a quiet ``deque``
        property nobody reads.
        """
        spans = self.tracer.spans()
        return {
            "spans_retained": len(spans),
            "spans_dropped": self.tracer.dropped,
            "spans_open": sum(1 for s in spans if not s.finished),
            "events_retained": len(self.events),
            "events_emitted": self.events.total_emitted,
            "events_dropped": self.events.dropped,
        }


def obs_of(sim: Simulator) -> Observability:
    """The hub attached to ``sim``, created lazily on first use."""
    hub = getattr(sim, _HUB_ATTR, None)
    if hub is None:
        hub = Observability(sim)
        setattr(sim, _HUB_ATTR, hub)
    return hub
