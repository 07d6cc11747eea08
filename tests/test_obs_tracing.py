"""Tracing and event-log tests: units plus end-to-end propagation.

The integration fixtures drive a real portal journey and assert the
whole stack stitched into one trace: broker session -> LB placement ->
HTTP client -> REST server -> instance job -> workflow stages.
"""

import json

import pytest

from repro.core import Evop, EvopConfig
from repro.obs import (
    EventLog,
    SpanContext,
    Tracer,
    extract_context,
    inject_context,
    obs_of,
    render_tree,
    span_tree,
    summarize_spans,
    to_chrome_trace,
    tree_depth,
)
from repro.obs import events
from repro.obs import tracer as tracer_module
from repro.sim import Simulator
from repro.workflow import (
    CloudWorkflowEngine,
    ServiceCall,
    Workflow,
    WorkflowEngine,
    WorkflowNode,
)
from repro.workflow.cloud import service_node


# ---------------------------------------------------------------- units


def test_traceparent_round_trip():
    ctx = SpanContext(trace_id="ab" * 16, span_id="cd" * 8)
    headers = {}
    inject_context(ctx, headers)
    assert headers["traceparent"] == f"00-{'ab' * 16}-{'cd' * 8}-01"
    assert extract_context(headers) == ctx


@pytest.mark.parametrize("value", [
    "", "garbage", "00-short-ids-01", "99-" + "a" * 32 + "-" + "b" * 16,
    "00-" + "a" * 32 + "-" + "b" * 16,  # missing flags
])
def test_malformed_traceparent_ignored(value):
    assert extract_context({"traceparent": value}) is None


def test_extract_without_header_is_none():
    assert extract_context({}) is None


def test_tracer_parents_via_activation_stack():
    tracer = Tracer(Simulator())
    root = tracer.start_span("root")
    with tracer.activate(root):
        child = tracer.start_span("child")
        with tracer.activate(child):
            grandchild = tracer.start_span("grandchild")
    orphan = tracer.start_span("orphan")

    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    # outside any activation a span starts a fresh trace
    assert orphan.trace_id != root.trace_id
    assert orphan.parent_id is None


def test_span_finish_is_idempotent_and_stamps_sim_time():
    sim = Simulator()
    tracer = Tracer(sim)
    holder = {}
    sim.schedule(1.0, lambda: holder.setdefault("s", tracer.start_span("op")))
    sim.schedule(3.5, lambda: holder["s"].annotate("midway", detail=7))
    sim.schedule(4.0, lambda: holder["s"].finish())
    sim.schedule(5.0, lambda: holder["s"].finish(error="late"))  # ignored
    sim.run()
    span = holder["s"]
    assert span.start == 1.0 and span.end == 4.0
    assert span.duration == pytest.approx(3.0)
    assert span.status == "ok" and span.error is None
    assert span.annotations == [{"t": 3.5, "message": "midway", "detail": 7}]


def test_tracer_bounds_span_store(monkeypatch):
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 2)
    tracer = Tracer(Simulator())
    for i in range(5):
        tracer.start_span(f"s{i}").finish()
    assert [s.name for s in tracer.spans()] == ["s3", "s4"]
    assert tracer.dropped == 3


def test_event_log_filters_and_bounds(monkeypatch):
    monkeypatch.setattr(events, "MAX_EVENTS", 3)
    sim = Simulator()
    log = EventLog(sim)
    sim.schedule(1.0, lambda: log.emit("lb.launch", service="x"))
    sim.schedule(2.0, lambda: log.emit("lb.replica.ready", service="x"))
    sim.schedule(3.0, lambda: log.emit("instance.failed", cause="crash"))
    sim.schedule(4.0, lambda: log.emit("instance.running"))
    sim.run()
    assert len(log) == 3 and log.dropped == 1 and log.total_emitted == 4
    assert [e.kind for e in log.events(kind="instance")] == [
        "instance.failed", "instance.running"]
    assert [e.kind for e in log.events(since=3.5)] == ["instance.running"]
    assert log.counts()["instance.failed"] == 1
    assert log.events(kind="lb.replica.ready")[0].fields == {"service": "x"}


def _spans_with_durations(durations):
    sim = Simulator()
    tracer = Tracer(sim)
    holders = []
    for i, duration in enumerate(durations):
        holder = {}
        holders.append(holder)
        sim.schedule(0.0, lambda h=holder: h.setdefault(
            "s", tracer.start_span("op")))
        sim.schedule(duration, lambda h=holder: h["s"].finish())
    sim.run()
    return tracer


def test_summarize_spans_percentiles():
    tracer = _spans_with_durations([1.0, 2.0, 3.0, 4.0, 5.0])
    open_span = tracer.start_span("op")  # unfinished: excluded
    summary = summarize_spans(tracer.spans())
    stats = summary["op"]
    assert stats["count"] == 5 and stats["errors"] == 0
    assert stats["p50"] == pytest.approx(3.0)
    assert stats["mean"] == pytest.approx(3.0)
    assert stats["total"] == pytest.approx(15.0)
    assert open_span.duration is None


def test_chrome_trace_event_shape():
    tracer = _spans_with_durations([2.0])
    doc = to_chrome_trace(tracer.spans())
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 1
    event = complete[0]
    assert event["ts"] == 0 and event["dur"] == 2_000_000  # microseconds
    assert event["name"] == "op"
    assert {"pid", "tid", "args"} <= set(event)
    json.dumps(doc)  # must be serialisable as-is


def test_span_tree_depth_and_rendering():
    tracer = Tracer(Simulator())
    root = tracer.start_span("root")
    with tracer.activate(root):
        child = tracer.start_span("child")
        with tracer.activate(child):
            tracer.start_span("leaf").finish()
        child.finish(error="boom")
    root.finish()
    roots = span_tree(tracer.spans())
    assert tree_depth(roots) == 3
    lines = render_tree(roots)
    assert lines[0].startswith("root")
    assert any("child" in line and "!" in line for line in lines)


def test_local_workflow_engine_nests_under_active_span():
    sim = Simulator()
    tracer = Tracer(sim)
    engine = WorkflowEngine(tracer=tracer)
    workflow = Workflow("unit")
    workflow.add(WorkflowNode("only", lambda p, u: 42))
    outer = tracer.start_span("job outer", kind="job")
    with tracer.activate(outer):
        record = engine.run(workflow)
    outer.finish()
    run_span = next(s for s in tracer.spans()
                    if s.name == "workflow.run unit")
    stage_span = next(s for s in tracer.spans()
                      if s.name == "workflow.stage only")
    assert record.trace_id == outer.trace_id
    assert run_span.parent_id == outer.span_id
    assert stage_span.parent_id == run_span.span_id
    assert stage_span.attributes["cached"] is False


# ---------------------------------------------------- end-to-end journey


@pytest.fixture(scope="module")
def traced_journey():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2)).bootstrap()
    evop.run_for(400.0)
    widget = evop.left().open_modelling_widget("obs-user")
    evop.run_for(20.0)
    widget.load()
    evop.run_for(20.0)
    widget.select_scenario("baseline")
    widget.run(duration_hours=96)
    evop.run_for(300.0)

    process_id = f"topmodel-{evop.config.catchments[0]}"
    workflow = Workflow("obs-wf")
    workflow.add(service_node("model", ServiceCall(
        process_id, lambda: widget.session.instance_address,
        lambda p, u: {"scenario": "baseline", "duration_hours": 96})))
    engine = CloudWorkflowEngine(evop.sim, evop.network,
                                 client=evop.resilient)
    done = engine.run(workflow, parent=widget.session.trace_context)
    evop.run_for(300.0)
    assert done.value is not None
    return evop, widget


def _trace_spans(evop, widget):
    trace_id = widget.session.trace_context.trace_id
    return obs_of(evop.sim).tracer.spans(trace_id=trace_id)


def test_journey_is_one_trace_spanning_all_layers(traced_journey):
    evop, widget = traced_journey
    spans = _trace_spans(evop, widget)
    names = {s.name for s in spans}
    assert any(n.startswith("rb.session") for n in names)
    assert "lb.place" in names
    assert any(n.startswith("http ") for n in names)
    assert any(n.startswith("rest ") for n in names)
    assert any(n.startswith("job ") for n in names)
    assert any(n.startswith("workflow.run") for n in names)
    assert any(n.startswith("workflow.stage") for n in names)
    # every span really carries the session's trace id
    trace_id = widget.session.trace_context.trace_id
    assert all(s.trace_id == trace_id for s in spans)


def test_journey_spans_nest_correctly(traced_journey):
    evop, widget = traced_journey
    spans = _trace_spans(evop, widget)
    by_id = {s.span_id: s for s in spans}
    session = next(s for s in spans if s.name.startswith("rb.session"))

    for span in spans:
        if span.name == "lb.place":
            assert span.parent_id == session.span_id
        elif span.name.startswith("rest "):
            assert by_id[span.parent_id].name.startswith("http ")
        elif span.name.startswith("job "):
            assert by_id[span.parent_id].name.startswith("rest ")
        elif span.name.startswith("workflow.run"):
            assert span.parent_id == session.span_id
        elif span.name.startswith("workflow.stage"):
            assert by_id[span.parent_id].name.startswith("workflow.run")

    # http client spans hang off the resilience span of the attempt that
    # issued them; the resilience span hangs off the session root or a
    # workflow stage (whoever initiated the call)
    for span in spans:
        if span.name.startswith("http "):
            parent = by_id[span.parent_id].name
            assert parent.startswith("resilience ")
        elif span.name.startswith("resilience "):
            parent = by_id[span.parent_id].name
            assert parent.startswith(("rb.session", "workflow.stage"))


def test_journey_trace_depth_at_least_four(traced_journey):
    evop, widget = traced_journey
    roots = span_tree(_trace_spans(evop, widget))
    assert len(roots) == 1
    assert tree_depth(roots) >= 4


def test_workflow_record_links_to_trace(traced_journey):
    evop, widget = traced_journey
    run_span = next(s for s in _trace_spans(evop, widget)
                    if s.name.startswith("workflow.run"))
    assert run_span.attributes["run_id"].startswith("cwf-")
    assert run_span.trace_id == widget.session.trace_context.trace_id


def test_journey_emits_infrastructure_events(traced_journey):
    evop, _widget = traced_journey
    counts = obs_of(evop.sim).events.counts()
    assert counts.get("rb.connect", 0) >= 1
    assert counts.get("instance.running", 0) >= 1
    assert counts.get("lb.replica.ready", 0) >= 1


def test_session_end_closes_root_span(traced_journey):
    evop, widget = traced_journey
    evop.rb.disconnect(widget.session)
    evop.run_for(5.0)
    session_span = next(s for s in _trace_spans(evop, widget)
                        if s.name.startswith("rb.session"))
    assert session_span.finished
    assert "migrations" in session_span.attributes


def test_crash_mid_request_marks_spans_errored():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2)).bootstrap()
    evop.run_for(400.0)
    widget = evop.left().open_modelling_widget("crash-user")
    evop.run_for(20.0)
    widget.load()
    evop.run_for(20.0)
    widget.request_timeout = 60.0
    widget.select_scenario("baseline")
    widget.run(duration_hours=2160)  # a long job, so the crash lands mid-run
    evop.run_for(0.1)
    victim = widget.session.instance
    assert victim is not None
    evop.injector.crash(victim)
    evop.run_for(300.0)

    spans = obs_of(evop.sim).tracer.spans(
        trace_id=widget.session.trace_context.trace_id)
    errored = [s for s in spans if s.error is not None]
    assert errored, "the crashed request left no errored span"
    assert any(s.name.startswith(("rest ", "job ", "http "))
               for s in errored)
    assert obs_of(evop.sim).events.counts().get("instance.failed", 0) >= 1
