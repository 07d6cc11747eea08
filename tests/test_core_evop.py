"""Integration tests over the Evop facade (Figure 1 end to end)."""

import pytest

from repro.core import Evop, EvopConfig


@pytest.fixture(scope="module")
def evop():
    deployment = Evop(EvopConfig(truth_days=8, storm_day=4)).bootstrap()
    deployment.run_for(600.0)
    return deployment


def test_bootstrap_is_idempotent(evop):
    services_before = len(evop.lb.services())
    evop.bootstrap()
    assert len(evop.lb.services()) == services_before


def test_bootstrap_brings_up_private_replicas(evop):
    assert evop.instances_by_location()["private"] >= 2  # gateway + replica
    service = evop.lb.service("left-morland")
    assert len(service.serving()) >= 1
    assert evop.registry.lookup("left-morland")


def test_models_published_with_calibration(evop):
    entry = evop.library.get("topmodel-morland")
    assert entry.calibration is not None
    assert entry.calibration.is_behavioural()
    image = evop.library.image_for("topmodel-morland")
    assert "topmodel-morland" in image.bundled_models


def test_truth_series_in_warehouse(evop):
    rain = evop.warehouse.get_series("morland/rainfall")
    flow = evop.warehouse.get_series("morland/discharge")
    assert len(rain) == len(flow) == 8 * 24
    assert rain.total() > 0


def test_catalog_populated(evop):
    assert len(evop.catalog.by_catchment("morland")) == 6


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        Evop(EvopConfig(policy="chaos-monkey"))


def test_config_validation():
    with pytest.raises(ValueError):
        EvopConfig(private_vcpus=0)
    with pytest.raises(ValueError):
        EvopConfig(truth_days=5, storm_day=9)
    with pytest.raises(ValueError):
        EvopConfig(sessions_per_replica=0)


def test_left_requires_bootstrap():
    with pytest.raises(RuntimeError):
        Evop(EvopConfig(truth_days=2, storm_day=1)).left()


def test_cost_report_accrues_private_only_by_default(evop):
    report = evop.cost_report()
    assert report["openstack"] > 0
    assert report.get("aws", 0.0) == 0.0
    assert report["total"] == pytest.approx(sum(
        v for k, v in report.items() if k != "total"))


def test_wps_roundtrip_through_registry(evop):
    """Any advertised replica answers GetCapabilities (XaaS uniformity)."""
    from repro.services import HttpRequest
    address = evop.registry.first_address("left-morland")
    reply = evop.network.request(address, HttpRequest("GET", "/v1/wps"))
    evop.run_for(10.0)
    assert reply.value.ok
    identifiers = {p["identifier"] for p in reply.value.body["processes"]}
    assert identifiers == {"topmodel-morland", "fuse-morland",
                           "water-quality-morland"}


def test_multi_catchment_deployment():
    deployment = Evop(EvopConfig(
        truth_days=4, storm_day=2,
        catchments=("morland", "tarland"))).bootstrap()
    deployment.run_for(600.0)
    assert deployment.lb.service("left-morland")
    assert deployment.lb.service("left-tarland")
    assert deployment.left("tarland").catchment.country == "Scotland"
    markers = deployment.left("tarland").landing_page().markers()
    assert len(markers) == 6  # tarland's own assets only
