"""Tests for the SVG renderer and on-demand SOS exposure."""

import xml.etree.ElementTree as ET

import pytest

from repro.core import Evop, EvopConfig
from repro.hydrology import TimeSeries
from repro.portal import ChartSpec, Series
from repro.services import HttpRequest


def make_spec(with_band=False):
    spec = ChartSpec(title="Flood hydrograph <test>", y_label="flow (mm/h)")
    flow = TimeSeries(0, 3600, [0.2, 0.5, 2.5, 1.2, 0.4], units="mm/h",
                      name="flow")
    spec.add(Series.from_timeseries(flow))
    if with_band:
        spec.add_band(flow.map(lambda v: v * 0.7),
                      flow.map(lambda v: v * 1.3))
    spec.add_threshold("flood threshold", 2.0)
    return spec


def test_svg_is_well_formed_xml():
    svg = make_spec(with_band=True).to_svg()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    tags = [child.tag.split("}")[-1] for child in root.iter()]
    assert "polyline" in tags       # the flow line
    assert "polygon" in tags        # the uncertainty band
    assert tags.count("line") >= 3  # two axes + the threshold rule


def test_svg_escapes_labels():
    svg = make_spec().to_svg()
    assert "&lt;test&gt;" in svg
    assert "<test>" not in svg


def test_svg_empty_chart():
    svg = ChartSpec(title="empty").to_svg()
    ET.fromstring(svg)
    assert "no data" in svg


def test_svg_coordinates_inside_viewbox():
    svg = make_spec(with_band=True).to_svg(width=400, height=200)
    root = ET.fromstring(svg)
    for poly in root.iter():
        if poly.tag.endswith("polyline") or poly.tag.endswith("polygon"):
            for pair in poly.attrib["points"].split():
                x, y = map(float, pair.split(","))
                assert -1 <= x <= 401
                assert -1 <= y <= 201


def test_expose_sos_serves_catchment_sensors():
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=61)).bootstrap()
    evop.left().start_feeds(until=evop.sim.now + 6 * 3600.0)
    evop.run_for(4 * 3600.0)

    service_name = evop.expose_sos("morland")
    assert service_name == "sos-morland"
    evop.run_for(300.0)  # boot the SOS replica
    address = evop.registry.first_address(service_name)
    assert address is not None

    caps = evop.network.request(address, HttpRequest("GET", "/v1/sos"))
    evop.run_for(10.0)
    assert caps.value.ok
    offerings = {o["procedure"] for o in caps.value.body["offerings"]}
    assert "morland-level-1" in offerings
    assert len(offerings) == 4

    obs = evop.network.request(address, HttpRequest(
        "GET", "/v1/sos/observations/morland-rain-1",
        query={"begin": "0", "end": str(evop.sim.now)}))
    evop.run_for(10.0)
    assert obs.value.ok
    assert len(obs.value.body["observations"]) > 10

    # idempotent: a second expose reuses the managed service
    assert evop.expose_sos("morland") == service_name
    assert sum(1 for s in evop.lb.services()
               if s.name == service_name) == 1


def test_expose_sos_requires_bootstrap():
    with pytest.raises(RuntimeError):
        Evop(EvopConfig(truth_days=2, storm_day=1)).expose_sos()
