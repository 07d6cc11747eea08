"""Simulation-native observability for the EVOp fabric.

One user journey crosses every layer of the reproduction — portal widget
→ Resource Broker → Load Balancer → REST replica → cloud instance →
workflow stage — and this package makes that path visible:

* :class:`~repro.obs.tracer.Tracer` produces :class:`~repro.obs.tracer.Span`
  trees on the *simulated* clock, with W3C-style context propagation
  threaded through HTTP headers on the simulated wire;
* :class:`~repro.obs.events.EventLog` is a bounded structured log of
  infrastructure happenings (instance lifecycle, LB decisions, faults,
  cloudburst transitions);
* :mod:`~repro.obs.export` renders collected spans as flat percentile
  summaries, JSON Lines, Chrome ``trace_event`` JSON that opens
  directly in ``chrome://tracing`` / Perfetto, or collapsed flamegraph
  stacks (self-time per root-to-span path);
* :mod:`~repro.obs.telemetry` samples the raw signals of every metrics
  registry into a bounded labeled
  :class:`~repro.obs.telemetry.SeriesStore` on the simulated clock, with
  a RED view and trace exemplars;
* :mod:`~repro.obs.slo` evaluates declarative
  :class:`~repro.obs.slo.SLO` objects with multi-window multi-burn-rate
  alert rules that page over the deployment's push channels.

Subsystems reach the shared :class:`~repro.obs.hub.Observability` hub via
:func:`~repro.obs.hub.obs_of`, which lazily attaches one hub to the
:class:`~repro.sim.Simulator` — so every subsystem sharing a simulator
shares a trace store, and an untouched simulator pays nothing.
"""

from repro.obs.context import (
    SpanContext,
    TRACEPARENT_HEADER,
    extract_context,
    inject_context,
)
from repro.obs.events import Event, EventLog
from repro.obs.export import (
    render_tree,
    span_tree,
    summarize_spans,
    to_chrome_trace,
    to_collapsed_stacks,
    to_jsonl,
    tree_depth,
    write_chrome_trace,
    write_collapsed_stacks,
)
from repro.obs.hub import Observability, obs_of
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    AlertManager,
    AlertRule,
    SLO,
)
from repro.obs.telemetry import (
    MetricsScraper,
    Series,
    SeriesStore,
    TelemetryPlane,
    red_view,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "AlertManager",
    "AlertRule",
    "DEFAULT_BURN_WINDOWS",
    "Event",
    "EventLog",
    "MetricsScraper",
    "Observability",
    "SLO",
    "Series",
    "SeriesStore",
    "Span",
    "SpanContext",
    "TRACEPARENT_HEADER",
    "TelemetryPlane",
    "Tracer",
    "extract_context",
    "inject_context",
    "obs_of",
    "red_view",
    "render_tree",
    "span_tree",
    "summarize_spans",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "to_jsonl",
    "tree_depth",
    "write_chrome_trace",
    "write_collapsed_stacks",
]
