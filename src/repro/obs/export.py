"""Exporters: percentile summaries, JSON Lines, Chrome trace_event.

Three consumers, three formats:

* the benchmark harness wants a flat per-span-name table —
  :func:`summarize_spans`;
* log pipelines want one JSON object per line — :func:`to_jsonl`;
* humans want a flame view — :func:`to_chrome_trace` emits the Chrome
  ``trace_event`` JSON object format (``ph: "X"`` complete events with
  microsecond timestamps), loadable in ``chrome://tracing`` and
  `Perfetto <https://ui.perfetto.dev>`_ unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.events import Event
from repro.obs.tracer import Span
from repro.sim.metrics import percentile


def summarize_spans(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-span-name duration statistics over *finished* spans.

    Returns ``{name: {count, errors, error_rate, p50, p95, p99, mean,
    total}}`` with durations in simulated seconds, names sorted
    alphabetically.  ``error_rate`` is errors/count — what separates
    "fast because it is healthy" from "fast because it failed fast".
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        if span.finished:
            by_name.setdefault(span.name, []).append(span)
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(by_name):
        durations = sorted(s.duration for s in by_name[name])
        total = sum(durations)
        errors = float(sum(1 for s in by_name[name]
                           if s.status == "error"))
        out[name] = {
            "count": float(len(durations)),
            "errors": errors,
            "error_rate": errors / len(durations),
            "mean": total / len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "p99": percentile(durations, 99),
            "total": total,
        }
    return out


def _span_dict(span: Span) -> Dict[str, Any]:
    return {
        "name": span.name,
        "kind": span.kind,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "error": span.error,
        "attributes": span.attributes,
        "annotations": span.annotations,
    }


def to_jsonl(spans: Iterable[Span]) -> str:
    """Spans as JSON Lines (one object per span, start-time order)."""
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    return "\n".join(json.dumps(_span_dict(s), default=repr)
                     for s in ordered)


def to_chrome_trace(spans: Iterable[Span],
                    events: Iterable[Event] = ()) -> Dict[str, Any]:
    """Spans (and optional events) in Chrome ``trace_event`` format.

    Each trace becomes one "thread" (tid) inside a single process, so
    nested spans of the same trace render as a flame stack and parallel
    traces as parallel tracks.  Timestamps convert from simulated
    seconds to the format's microseconds.
    """
    trace_tids: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "evop-simulation"},
    }]
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        tid = trace_tids.setdefault(span.trace_id, len(trace_tids) + 1)
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "status": span.status,
        }
        if span.error:
            args["error"] = span.error
        args.update({k: repr(v) if not isinstance(v, (str, int, float, bool))
                     else v for k, v in span.attributes.items()})
        trace_events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
        for note in span.annotations:
            trace_events.append({
                "name": note["message"],
                "cat": "annotation",
                "ph": "i",
                "s": "t",
                "ts": note["t"] * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {k: v for k, v in note.items()
                         if k not in ("t", "message")},
            })
    for event in events:
        trace_events.append({
            "name": event.kind,
            "cat": "infrastructure",
            "ph": "i",
            "s": "g",
            "ts": event.t * 1e6,
            "pid": 1,
            "tid": 0,
            "args": {k: repr(v) if not isinstance(v, (str, int, float, bool))
                     else v for k, v in event.fields.items()},
        })
    for tid_name, tid in trace_tids.items():
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": f"trace {tid_name[-8:]}"},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span],
                       events: Iterable[Event] = ()) -> str:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    document = to_chrome_trace(spans, events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
    return path


def to_collapsed_stacks(spans: Iterable[Span]) -> List[str]:
    """Spans as collapsed flamegraph stacks (``a;b;c <self_us>``).

    One line per unique root-to-span path, semicolon-joined names, value
    the *self* time in integer microseconds — span duration minus the
    time covered by its children (clamped at zero when children overlap
    or outlast the parent).  The output feeds ``flamegraph.pl``,
    speedscope and friends unchanged; identical paths from different
    traces aggregate, which is the point: the profile shows where the
    fleet's simulated time goes, not one request's.
    """
    totals: Dict[str, int] = {}

    def walk(node: Dict[str, Any], prefix: str) -> None:
        span = node["span"]
        stack = f"{prefix};{span.name}" if prefix else span.name
        if span.finished:
            child_time = sum(c["span"].duration for c in node["children"]
                             if c["span"].finished)
            self_us = int(round(max(0.0, span.duration - child_time) * 1e6))
            totals[stack] = totals.get(stack, 0) + self_us
        for child in node["children"]:
            walk(child, stack)

    for root in span_tree(spans):
        walk(root, "")
    return [f"{stack} {value}" for stack, value in sorted(totals.items())]


def write_collapsed_stacks(path: str, spans: Iterable[Span]) -> str:
    """Write :func:`to_collapsed_stacks` lines to ``path``; returns it."""
    lines = to_collapsed_stacks(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return path


def span_tree(spans: Iterable[Span],
              trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
    """Nest spans into parent→children trees.

    Returns root nodes ``{"span": Span, "children": [...]}`` (children
    in start order).  With ``trace_id`` set, only that trace is built;
    orphans (parent outside the collected window) become roots.
    """
    chosen = [s for s in spans
              if trace_id is None or s.trace_id == trace_id]
    nodes = {s.span_id: {"span": s, "children": []} for s in chosen}
    roots: List[Dict[str, Any]] = []
    for span in sorted(chosen, key=lambda s: (s.start, s.span_id)):
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id else None
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def tree_depth(roots: List[Dict[str, Any]]) -> int:
    """Maximum nesting depth of a :func:`span_tree` forest."""
    if not roots:
        return 0
    return 1 + max(tree_depth(node["children"]) for node in roots)


def render_tree(roots: List[Dict[str, Any]], indent: int = 0) -> List[str]:
    """ASCII rendering of a span forest, one line per span."""
    lines: List[str] = []
    for node in roots:
        span = node["span"]
        mark = " !" if span.status == "error" else ""
        extent = f"+{span.duration:.3f}s" if span.finished else "open"
        lines.append(f"{'  ' * indent}{span.name}  "
                     f"[{span.start:.3f}s {extent}]{mark}")
        lines.extend(render_tree(node["children"], indent + 1))
    return lines
