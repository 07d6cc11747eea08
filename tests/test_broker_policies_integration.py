"""Deeper broker integration: workload-split autoscaling, quota interplay,
async execution across failures."""

import pytest

from repro.core import Evop, EvopConfig
from repro.services import HttpRequest


def test_workload_split_policy_places_streamlined_service_public():
    evop = Evop(EvopConfig(policy="workload-split", truth_days=3,
                           storm_day=1, seed=51)).bootstrap()
    evop.run_for(400.0)
    service = evop.lb.service("left-morland")
    # the LEFT service boots the streamlined TOPMODEL bundle, so the
    # split policy sends its replicas to the public cloud
    locations = {evop.multicloud.location_of(inst)
                 for inst in service.serving()}
    assert locations == {"public"}
    # ...while the RB gateway host (launched before the LB existed)
    # lives on the private cloud
    assert evop.instances_by_location()["private"] >= 1


def test_autoscaler_respects_public_account_limit():
    evop = Evop(EvopConfig(policy="public-only", truth_days=3, storm_day=1,
                           public_account_limit=3,
                           sessions_per_replica=1,
                           autoscale_interval=10.0, seed=53)).bootstrap()
    evop.run_for(400.0)
    for i in range(8):
        evop.rb.connect(f"u{i}", "left-morland")
    evop.run_for(900.0)
    service = evop.lb.service("left-morland")
    # demand wants 8 replicas; the account cap holds the line at 3
    assert len(service.serving()) <= 3
    assert evop.lb.metrics.counter("scaleup.refused").value > 0
    # everyone still got an instance (they just share)
    assert len(evop.sessions.waiting()) == 0


def test_async_execution_survives_accepting_replica_crash():
    """Async WPS status lives in shared storage: the accepting replica
    can die after the job completes and any replica still answers."""
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=55,
                           min_replicas=2)).bootstrap()
    evop.run_for(400.0)
    service = evop.lb.service("left-morland")
    a, b = service.serving()[:2]

    accept = evop.network.request(a.address, HttpRequest(
        "POST", "/v1/wps/processes/topmodel-morland/execute",
        body={"inputs": {"duration_hours": 48}, "mode": "async"}),
        timeout=120.0)
    evop.run_for(30.0)
    assert accept.value.status == 202
    location = accept.value.body["statusLocation"]
    # the job has finished by now; kill the replica that accepted it
    evop.injector.crash(a)
    status = evop.network.request(b.address, HttpRequest("GET", location),
                                  timeout=60.0)
    evop.run_for(30.0)
    assert status.value.ok
    assert status.value.body["status"] == "succeeded"


def test_session_survives_two_consecutive_crashes():
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=57,
                           min_replicas=2, private_vcpus=16)).bootstrap()
    evop.run_for(400.0)
    session = evop.rb.connect("unlucky", "left-morland")
    evop.run_for(30.0)
    for _round in range(2):
        victim = session.instance
        assert victim is not None
        evop.injector.crash(victim)
        evop.run_for(400.0)
    assert session.state.value == "active"
    assert session.instance.is_serving
    assert len(session.migrations) >= 2


def test_cost_report_reflects_burst_and_reversal():
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=59,
                           private_vcpus=4, sessions_per_replica=1,
                           autoscale_interval=10.0)).bootstrap()
    evop.run_for(400.0)
    sessions = [evop.rb.connect(f"u{i}", "left-morland") for i in range(6)]
    evop.run_for(900.0)
    mid_cost = evop.cost_report()
    assert mid_cost.get("aws", 0.0) > 0.0          # bursting costs money
    for session in sessions:
        evop.rb.disconnect(session)
    evop.run_for(3600.0)
    assert evop.instances_by_location()["public"] == 0
    final = evop.cost_report()
    # the aws bill stopped growing after the reversal (within pennies of
    # per-second rounding)
    evop.run_for(3600.0)
    later = evop.cost_report()
    assert later.get("aws", 0.0) == pytest.approx(final.get("aws", 0.0),
                                                  abs=1e-6)
    # the private bill keeps ticking (sunk-cost hardware stays on)
    assert later["openstack"] > final["openstack"]
