"""``python -m repro top`` — a live text dashboard over the telemetry plane.

The simulated-world equivalent of ``top``/``k9s``: boot a deployment
with telemetry on, drive portal load (and one mid-run fault, so the
screen is worth watching), and render a frame every simulated refresh
interval — health score, SLO table, RED view of the request fabric,
scheduling-plane saturation and the estate per location.  Frames are
plain text; on a real terminal they repaint in place via ANSI, piped
output degrades to sequential frames.
"""

from __future__ import annotations

import sys
from typing import Any, List

from repro.obs.hub import obs_of
from repro.obs.telemetry import red_view

#: ANSI: cursor home + clear-to-end; how the frame repaints in place
_REPAINT = "\x1b[H\x1b[J"


def _fmt(value: Any, pattern: str = "{:.2f}") -> str:
    if value is None:
        return "—"
    return pattern.format(value)


def render_frame(evop) -> str:
    """One dashboard frame over ``evop``'s telemetry plane."""
    plane = evop.telemetry
    if plane is None:
        return "telemetry disabled — call enable_telemetry() first"
    now = evop.sim.now
    vitals = plane.snapshot()
    lines: List[str] = []
    alerts = vitals["alerts_firing"]
    lines.append(
        f"evop top  t={now:7.0f}s  health={vitals['health_score']:.0f}/100  "
        f"series={vitals['series']}  scrapes={vitals['scrapes']}  "
        f"{'ALERTS: ' + ', '.join(alerts) if alerts else 'no alerts'}")
    lines.append("")

    lines.append("SLOs")
    for status in plane.slo_status():
        burns = status["burn_rates"]
        burn_text = "  ".join(f"{w}:{_fmt(b, '{:.1f}x')}"
                              for w, b in burns.items())
        lines.append(
            f"  {status['slo']:28s} sli={_fmt(status['sli'], '{:.4f}')} "
            f"target={status['target']:.3f}  burn {burn_text}"
            f"{'  FIRING' if status['firing'] else ''}")
    lines.append("")

    red = red_view(plane.store, now, window=60.0,
                   requests="requests", errors="attempt.failures",
                   duration="request.duration", service="resilience")
    lines.append("request fabric (RED, 60s window)")
    lines.append(
        f"  rate={_fmt(red['rate'], '{:.2f}/s')}  "
        f"attempt-failures={_fmt(red['error_rate'], '{:.2f}/s')}  "
        f"p95={_fmt(red['duration_p95'], '{:.2f}s')}")
    lines.append("")

    lines.append("scheduling plane (queue depth by shard/class)")
    for series in sorted(plane.store.query("sched.queue.depth"),
                         key=lambda s: (s.labels.get("shard", ""),
                                        s.labels.get("priority", ""))):
        latest = series.latest()
        depth = latest[1] if latest else 0.0
        bar = "#" * min(40, int(depth))
        lines.append(f"  shard {series.labels.get('shard', '?')} "
                     f"{series.labels.get('priority', '?'):12s} "
                     f"{depth:5.0f} {bar}")
    lines.append("")

    estate = evop.instances_by_location()
    lines.append("estate:  " + "  ".join(f"{loc}={n}"
                                         for loc, n in estate.items())
                 + f"  cloudbursting={'YES' if evop.sched.cloudbursting else 'no'}"
                 + f"  cost=${evop.cost_report()['total']:.3f}")
    hub = obs_of(evop.sim).snapshot()
    lines.append(f"retention: spans={hub['spans_retained']} "
                 f"(dropped {hub['spans_dropped']})  "
                 f"events={hub['events_retained']} "
                 f"(dropped {hub['events_dropped']})")
    return "\n".join(lines)


def run_top(horizon: float = 900.0, refresh: float = 30.0,
            stream=None) -> None:
    """Boot a deployment, drive load, and repaint the dashboard.

    ``horizon`` simulated seconds total, one frame every ``refresh``.
    A replica crash is injected a third of the way in so the burn-rate
    alerting has something to show.
    """
    from repro import Evop, EvopConfig

    out = stream if stream is not None else sys.stdout
    repaint = _REPAINT if (stream is None and sys.stdout.isatty()) else ""

    print("booting deployment with telemetry (this takes a moment)...",
          file=out)
    evop = Evop(EvopConfig(truth_days=6, storm_day=3,
                           telemetry_interval=5.0)).bootstrap()
    evop.run_for(300.0)
    widget = evop.left().open_modelling_widget("top-user")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)

    crash_at = evop.sim.now + horizon / 3.0
    crashed = False
    scenarios = list(widget.scenario_buttons)
    end = evop.sim.now + horizon
    frame = 0
    while evop.sim.now < end:
        # keep demand flowing so the RED view has a pulse
        widget.select_scenario(scenarios[frame % len(scenarios)])
        widget.run(duration_hours=48)
        if not crashed and evop.sim.now >= crash_at:
            service = evop.service_name(evop.config.catchments[0])
            victims = [s for s in evop.sched.services()
                       if s.name == service and s.replicas]
            if victims:
                evop.injector.crash(victims[0].replicas[0],
                                    cause="top-demo")
                crashed = True
        evop.run_for(refresh)
        frame += 1
        print(f"{repaint}{render_frame(evop)}", file=out)
    print(f"\n{horizon:.0f}s horizon complete; final state above.",
          file=out)
