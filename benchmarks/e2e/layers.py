"""Assemble the per-layer table of one traced pass.

Three sources, one row set: host self time and call counts from
:class:`~benchmarks.e2e.trace.HostTracer`; simulated seconds from the
program's existing ``obs`` spans via ``summarize_spans``; and the
workload's own reading of public ``stats()`` / ``snapshot()`` methods.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.export import summarize_spans
from repro.obs.hub import obs_of
from repro.sim import Simulator

from benchmarks.e2e.spec import PER_LAYER, SPAN_LAYERS
from benchmarks.e2e.trace import DATAPLANE_READS, TRACED, HostTracer
from benchmarks.e2e.workloads.common import Outcome

#: prefix of a program span name -> the layer (package) that emitted it
_SPAN_PREFIXES = (
    ("http ", "services.transport"),
    ("rest ", "services.rest"),
    ("resilience ", "resilience"),
    ("job ", "cloud"),
    ("lb.place", "broker"),
    ("rb.session", "broker"),
    ("sched.", "sched"),
    ("ensemble.run", "perf"),
    ("durable.", "durable"),
)


def span_metrics(sim: Simulator, ops: int) -> Dict[str, float]:
    """Sim-clock rows read from the program's own spans.

    The tracer retains the newest 100k spans; ``obs.spans_per_op``
    counts the dropped ones too.  Transport timeouts and ``304`` shares
    are only visible here for traffic that carried a ``traceparent`` —
    everything a resilient client sends does; workloads with bare
    clients report their own.
    """
    tracer = obs_of(sim).tracer
    spans = tracer.spans()
    seconds = {layer: 0.0 for layer in SPAN_LAYERS}
    for name, row in summarize_spans(spans).items():
        for prefix, layer in _SPAN_PREFIXES:
            if name.startswith(prefix):
                seconds[layer] += row["total"]
                break
    timeouts = served = not_modified = 0
    for span in spans:
        if span.kind == "client" and span.name.startswith("http "):
            timeouts += bool(span.error and span.error.startswith("timeout"))
        elif span.kind == "server" and "status" in span.attributes:
            served += 1
            not_modified += span.attributes["status"] == 304
    out = {f"{layer}.sim_s_per_op": total / ops
           for layer, total in seconds.items()}
    out["obs.spans_per_op"] = (len(spans) + tracer.dropped) / ops
    out["services.transport.timeouts"] = float(timeouts)
    out["services.rest.not_modified_ratio"] = not_modified / max(1, served)
    return out


def layer_metrics(outcome: Outcome, host_s: float, wall_s: float,
                  tracer: HostTracer) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, zeros where a layer
    did no work (``trace.overhead_ratio`` is filled in by the caller,
    which has the untraced passes to compare against)."""
    ops = max(1, outcome.ops)
    out = {metric.name: 0.0 for metric in PER_LAYER}
    calls, self_ns = tracer.layer_calls(), tracer.layer_self_ns()
    for layer in TRACED:
        out[f"{layer}.calls"] = float(calls[layer])
        out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1000 / ops
    out["sim.events_per_op"] = tracer.scheduled / ops
    out["sim.calendar_peak"] = float(tracer.calendar_peak)
    out["cloud.blob_puts_per_op"] = tracer.calls_of("Container.put") / ops
    out["durable.records_per_op"] = tracer.calls_of("RunJournal.append") / ops
    out["dataplane.read_self_us_per_op"] = sum(
        tracer.self_ns_of(name) for name in DATAPLANE_READS) / 1000 / ops
    model_ns = sum(record.total_ns for record in tracer.callables.values()
                   if record.layer == "hydrology")
    if model_ns:
        out["hydrology.sets_per_host_s"] = outcome.model_sets / (model_ns / 1e9)
    out.update(span_metrics(outcome.sim, ops))
    out.update(outcome.stats)
    out["obs.scraper_self_share"] = outcome.scraper_host_s / max(host_s, 1e-9)
    out["trace.unattributed_share"] = max(
        0.0, 1.0 - tracer.root_ns / 1e9 / max(wall_s, 1e-9))
    return out
