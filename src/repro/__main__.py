"""``python -m repro`` — entry points for the observatory.

* ``python -m repro`` (or ``python -m repro tour``) — the two-minute
  tour: boot a deployment, run the LEFT scenarios, print the comparison
  and the simulated cloud cost.
* ``python -m repro trace`` — run one example user journey plus a
  composed cloud workflow under distributed tracing and dump the trace
  as Chrome ``trace_event`` JSON (open it in ``chrome://tracing`` or
  https://ui.perfetto.dev).
* ``python -m repro chaos`` — crash an executor mid-workflow and watch
  the write-ahead run journal, lease expiry, and orphan re-adoption
  carry the run to completion on a replacement instance.
* ``python -m repro top`` — live text dashboard over the telemetry
  plane: health score, SLO burn rates, RED view, scheduling-plane
  saturation, with a replica crash injected mid-run so the alerts have
  something to say.

The full demonstrations live in ``examples/``.
"""

import argparse
import os

from repro import Evop, EvopConfig


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Environmental Virtual Observatory pilot, reproduced")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("tour", help="boot a deployment and run the LEFT demo")
    trace_parser = sub.add_parser(
        "trace", help="trace a user journey end to end and dump the spans")
    trace_parser.add_argument(
        "--out", default="evop-trace.json",
        help="Chrome trace_event output path (default: %(default)s)")
    sub.add_parser(
        "chaos",
        help="crash an executor mid-workflow; durable execution recovers it")
    top_parser = sub.add_parser(
        "top", help="live text dashboard over the telemetry plane")
    top_parser.add_argument(
        "--horizon", type=float, default=900.0,
        help="simulated seconds to run (default: %(default)s)")
    top_parser.add_argument(
        "--refresh", type=float, default=30.0,
        help="simulated seconds per frame (default: %(default)s)")
    args = parser.parse_args()
    if args.command == "top":
        from repro.obs.top import run_top
        run_top(horizon=args.horizon, refresh=args.refresh)
    elif args.command == "trace":
        directory = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(directory):
            parser.error(f"--out directory does not exist: {directory}")
        run_trace(args.out)
    elif args.command == "chaos":
        from repro.durable.demo import run_chaos
        run_chaos()
    else:
        run_tour()


def run_tour() -> None:
    print("repro - the Environmental Virtual Observatory pilot, reproduced")
    print("booting the hybrid cloud deployment...")
    evop = Evop(EvopConfig(truth_days=8, storm_day=4)).bootstrap()
    evop.run_for(600.0)
    print(f"  instances: {evop.instances_by_location()}")
    print(f"  services:  {[s.name for s in evop.sched.services()]}")
    print(f"  models:    {[e.name for e in evop.library.list()]}")

    print("\nopening the LEFT modelling widget as 'demo-user'...")
    widget = evop.left().open_modelling_widget("demo-user")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)

    for scenario in widget.scenario_buttons:
        widget.select_scenario(scenario)
        signal = widget.run(duration_hours=96)
        evop.run_for(200.0)
        run = signal.value
        marker = " <- floods!" if run.outputs["threshold_exceeded"] else ""
        print(f"  {scenario:16s} peak {run.outputs['peak_mm_h']:5.2f} mm/h"
              f"{marker}")

    print()
    print(widget.comparison_chart().to_ascii(width=64, height=10))
    cost = evop.cost_report()
    print(f"\ntotal simulated cloud cost: ${cost['total']:.3f}")
    print("next: python examples/left_flood_tool.py")


def run_trace(out_path: str) -> None:
    from repro.obs import (
        obs_of, render_tree, span_tree, summarize_spans, tree_depth,
        write_chrome_trace,
    )
    from repro.workflow import CloudWorkflowEngine, ServiceCall, Workflow
    from repro.workflow.cloud import service_node
    from repro.workflow.dag import WorkflowNode

    print("repro trace - one user journey, traced end to end")
    print("booting the hybrid cloud deployment...")
    evop = Evop(EvopConfig(truth_days=6, storm_day=3)).bootstrap()
    evop.run_for(400.0)

    print("connecting 'trace-user' through the Resource Broker...")
    widget = evop.left().open_modelling_widget("trace-user")
    evop.run_for(20.0)
    widget.load()
    evop.run_for(20.0)
    widget.select_scenario("baseline")
    widget.run(duration_hours=96)
    evop.run_for(300.0)

    print("running a composed storm-impact workflow in the same trace...")
    process_id = f"topmodel-{evop.config.catchments[0]}"
    address_of = lambda: widget.session.instance_address  # noqa: E731

    workflow = Workflow("storm-impact")
    workflow.add(service_node("baseline", ServiceCall(
        process_id, address_of,
        lambda p, u: {"scenario": "baseline",
                      "duration_hours": p["duration_hours"]})))
    workflow.add(service_node("scenario", ServiceCall(
        process_id, address_of,
        lambda p, u: {"scenario": p["scenario"],
                      "duration_hours": p["duration_hours"]})),)
    workflow.add(WorkflowNode(
        "compare",
        lambda p, u: {"peak_shaved_mm_h": u["baseline"]["peak_mm_h"]
                      - u["scenario"]["peak_mm_h"]},
        depends_on=("baseline", "scenario")))

    engine = CloudWorkflowEngine(evop.sim, evop.network,
                                 client=evop.resilient,
                                 scheduler=evop.sched)
    done = engine.run(workflow, {"scenario": "storage_ponds",
                                 "duration_hours": 96},
                      parent=widget.session.trace_context)
    evop.run_for(600.0)
    record = done.value
    if record is not None:
        print(f"  workflow {record.run_id}: peak shaved "
              f"{record.outputs['compare']['peak_shaved_mm_h']:.2f} mm/h")
    evop.rb.disconnect(widget.session)
    evop.run_for(10.0)

    hub = obs_of(evop.sim)
    trace_id = widget.session.trace_context.trace_id
    spans = hub.tracer.spans(trace_id=trace_id)
    roots = span_tree(spans)
    depth = tree_depth(roots)

    print(f"\n== trace {trace_id[-8:]} - {len(spans)} spans, "
          f"{depth} levels ==")
    for line in render_tree(roots):
        print(line)

    print("\n== per-span-name summary (simulated seconds) ==")
    for name, stats in summarize_spans(hub.tracer.spans()).items():
        print(f"  {name:55s} n={stats['count']:4.0f}  "
              f"p50={stats['p50']:.3f}  p95={stats['p95']:.3f}  "
              f"p99={stats['p99']:.3f}")

    counts = hub.events.counts()
    print(f"\n== {sum(counts.values())} infrastructure events ==")
    for kind in sorted(counts):
        print(f"  {kind:30s} {counts[kind]}")

    path = write_chrome_trace(out_path, hub.tracer.spans(),
                              hub.events.events())
    print(f"\nwrote {path} - open in chrome://tracing or "
          f"https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
