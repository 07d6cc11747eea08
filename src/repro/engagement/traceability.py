"""Storyboard→system traceability: verification made executable.

Section V-A's verification step "is the process of checking that an
artefact developed ... is technically correct and addresses the
requirements laid out in the storyboard".  This module performs that
check against a *live deployment*: each requirement of the LEFT
storyboard maps to an executable probe of the running system, and
:func:`verify_left_requirements` runs them all, marking the storyboard's
requirements satisfied — the traceability loop from workshop flipchart
to deployed feature.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.engagement.storyboard import Storyboard, left_flooding_storyboard


def _probe_geodiscovery(evop) -> bool:
    """REQ: assets discoverable by geographic location (step S1)."""
    markers = evop.left().landing_page().markers()
    return len(markers) >= 5 and any(m.kind == "model" for m in markers)


def _probe_live_timeseries(evop) -> bool:
    """REQ: live sensor data visualised as time series (step S2)."""
    widget = evop.left().timeseries_widget("level-1")
    chart = widget.chart(0.0, evop.sim.now)
    return widget.latest_value() is not None and bool(chart.series[0].points)


def _probe_cloud_model_run(evop) -> bool:
    """REQ: models run on demand in the cloud, no install (step S3)."""
    widget = evop.left().open_modelling_widget("verifier")
    evop.run_for(10.0)
    loaded = widget.load()
    evop.run_for(10.0)
    if loaded.value is not True:
        return False
    run = widget.run(duration_hours=48)
    evop.run_for(120.0)
    ok = run.value is not None and run.value.outputs["peak_mm_h"] >= 0
    evop.rb.disconnect(widget.session)
    return ok


def _probe_scenarios_with_defaults(evop) -> bool:
    """REQ: predefined scenarios with slider defaults (step S4)."""
    widget = evop.left().open_modelling_widget("verifier-2")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)
    if len(widget.scenario_buttons) != 4:
        return False
    widget.select_scenario("compaction")
    ok = widget.sliders["srmax"].value == 25.0
    evop.rb.disconnect(widget.session)
    return ok


def _probe_run_comparison(evop) -> bool:
    """REQ: runs comparable side by side (step S5)."""
    widget = evop.left().open_modelling_widget("verifier-3")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)
    for scenario in ("baseline", "storage_ponds"):
        widget.select_scenario(scenario)
        widget.run(duration_hours=48)
        evop.run_for(120.0)
    ok = (len(widget.runs) == 2
          and len(widget.comparison_chart().series) == 2)
    evop.rb.disconnect(widget.session)
    return ok


def _probe_device_independence(evop) -> bool:
    """REQ: usable from any web-enabled device (context requirement).

    The executable proxy: every user-facing interaction goes through
    the network/service fabric (no direct object access is required),
    and chart output serialises to plain JSON any browser can draw.
    """
    from repro.services import HttpRequest
    address = evop.registry.first_address(
        evop.service_name(evop.config.catchments[0]))
    if address is None:
        return False
    reply = evop.network.request(address, HttpRequest("GET", "/v1/wps"))
    evop.run_for(10.0)
    if not getattr(reply.value, "ok", False):
        return False
    widget = evop.left().timeseries_widget("level-1")
    chart_json = widget.chart(0.0, evop.sim.now).to_json()
    return chart_json.startswith("{")


#: Probe registry in the storyboard's requirement order.
LEFT_PROBES: Dict[str, Callable] = {
    "Assets discoverable by geographic location": _probe_geodiscovery,
    "Live sensor data visualised as time series": _probe_live_timeseries,
    "Models run on demand in the cloud, no install": _probe_cloud_model_run,
    "Predefined stakeholder scenarios with slider defaults":
        _probe_scenarios_with_defaults,
    "Runs comparable side by side": _probe_run_comparison,
    "Usable from any web-enabled device": _probe_device_independence,
}


def verify_left_requirements(evop, storyboard: Storyboard = None
                             ) -> Dict[str, bool]:
    """Run every probe against a live deployment.

    Returns requirement-text → passed; requirements that pass are marked
    satisfied on the storyboard, so ``storyboard.coverage()`` afterwards
    is the verification scorecard.
    """
    storyboard = storyboard if storyboard is not None \
        else left_flooding_storyboard()
    results: Dict[str, bool] = {}
    for requirement in storyboard.requirements:
        probe = LEFT_PROBES.get(requirement.text)
        if probe is None:
            results[requirement.text] = False
            continue
        passed = bool(probe(evop))
        results[requirement.text] = passed
        if passed:
            storyboard.mark_satisfied(requirement.requirement_id)
    return results
