"""Exporter edge cases: Chrome trace layout, span forests, histograms.

PR 1 shipped the exporters with happy-path coverage only; these pin the
structural contracts downstream tools depend on — pid/tid assignment in
the Chrome ``trace_event`` document, orphan handling in span forests,
and the overflow-bucket interpolation
in :meth:`Histogram.quantile`.
"""

import pytest

from repro.obs import (
    render_tree,
    span_tree,
    summarize_spans,
    to_chrome_trace,
    tree_depth,
    Tracer,
)
from repro.sim import Simulator
from repro.sim.metrics import Histogram


def _tracer():
    return Tracer(Simulator())


# ---------------------------------------------------------- chrome trace


def test_chrome_trace_assigns_one_tid_per_trace():
    tracer = _tracer()
    root_a = tracer.start_span("a")
    child_a = tracer.start_span("a.child", parent=root_a)
    root_b = tracer.start_span("b")
    for span in (child_a, root_a, root_b):
        span.finish()

    doc = to_chrome_trace(tracer.spans())
    rows = doc["traceEvents"]
    spans = {r["name"]: r for r in rows if r["ph"] == "X"}
    # single process; each trace is its own thread so nested spans of a
    # trace stack while parallel traces get parallel tracks
    assert all(r["pid"] == 1 for r in rows)
    assert spans["a"]["tid"] == spans["a.child"]["tid"]
    assert spans["b"]["tid"] != spans["a"]["tid"]
    # metadata rows label the process and each trace-thread
    process_meta = [r for r in rows if r["name"] == "process_name"]
    assert process_meta[0]["args"]["name"] == "evop-simulation"
    thread_meta = [r for r in rows if r["name"] == "thread_name"]
    assert sorted(r["tid"] for r in thread_meta) == \
        sorted({r["tid"] for r in spans.values()})


def test_chrome_trace_carries_status_and_error_args():
    tracer = _tracer()
    tracer.start_span("boom").finish(error="replica lost")
    row = [r for r in to_chrome_trace(tracer.spans())["traceEvents"]
           if r["ph"] == "X"][0]
    assert row["args"]["status"] == "error"
    assert row["args"]["error"] == "replica lost"
    assert row["args"]["parent_id"] is None


# ----------------------------------------------------------- span forest


def test_span_tree_promotes_orphans_to_roots():
    tracer = _tracer()
    root = tracer.start_span("root")
    child = tracer.start_span("child", parent=root)
    grandchild = tracer.start_span("grandchild", parent=child)
    for span in (grandchild, child, root):
        span.finish()
    # the collection window missed the root: its child must still render
    collected = [s for s in tracer.spans() if s.name != "root"]
    roots = span_tree(collected)
    assert [n["span"].name for n in roots] == ["child"]
    assert [n["span"].name for n in roots[0]["children"]] == ["grandchild"]
    assert tree_depth(roots) == 2


def test_span_tree_and_render_tree_handle_empty_input():
    assert span_tree([]) == []
    assert tree_depth([]) == 0
    assert render_tree([]) == []


def test_render_tree_marks_errors_and_open_spans():
    tracer = _tracer()
    root = tracer.start_span("work")
    tracer.start_span("broken", parent=root).finish(error="nope")
    lines = render_tree(span_tree(tracer.spans()))
    assert lines[0].startswith("work") and "open" in lines[0]
    assert lines[1].strip().startswith("broken") and lines[1].endswith("!")


def test_summarize_spans_reports_error_rate():
    sim = Simulator()
    tracer = Tracer(sim)
    for i in range(4):
        span = tracer.start_span("op")
        span.finish(error="boom" if i == 0 else None)
    stats = summarize_spans(tracer.spans())["op"]
    assert stats["count"] == 4 and stats["errors"] == 1
    assert stats["error_rate"] == pytest.approx(0.25)


# ------------------------------------------------------------- histogram


def test_histogram_quantile_interpolates_overflow_bucket():
    hist = Histogram("dur", buckets=(1.0, 10.0))
    for value in (0.5, 20.0, 30.0, 40.0):
        hist.observe(value)
    # p100 is the observed max, not an invented bucket edge
    assert hist.quantile(100) == pytest.approx(40.0)
    # the overflow bucket closes at the observed max: ranks inside it
    # interpolate between the last finite bound and that max
    assert 10.0 <= hist.quantile(50) <= 40.0
    assert hist.quantile(75) == pytest.approx(30.0, abs=10.0)
    assert Histogram("empty", buckets=(1.0,)).quantile(95) == 0.0
    with pytest.raises(ValueError):
        hist.quantile(101)


def test_histogram_retains_exemplar_per_bucket():
    hist = Histogram("dur", buckets=(1.0,))
    hist.observe(0.5, exemplar={"trace_id": "aa"})
    hist.observe(0.7, exemplar={"trace_id": "bb"})  # replaces, same bucket
    hist.observe(5.0, exemplar={"trace_id": "cc"})  # overflow bucket
    exemplars = dict(hist.exemplars())
    assert exemplars[1.0]["trace_id"] == "bb"
    assert exemplars[1.0]["value"] == 0.7
    assert exemplars[float("inf")]["trace_id"] == "cc"
