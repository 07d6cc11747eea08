"""Chaos and async-path integration tests.

The strongest claim in Section IV-D is composite: under background
instance failures the system keeps serving, replaces capacity, and user
journeys complete.  These tests inject faults while real journeys run,
and exercise the asynchronous WPS path end to end.
"""

import pytest

from repro.core import Evop, EvopConfig
from repro.obs import obs_of
from repro.portal import UserJourney


def test_journeys_survive_background_crashes():
    """Random instance crashes while six user journeys run: all complete."""
    evop = Evop(EvopConfig(
        truth_days=4, storm_day=2, private_vcpus=16,
        sessions_per_replica=2, min_replicas=2,
        autoscale_interval=10.0, seed=3,
    )).bootstrap()
    evop.run_for(400.0)

    # one background crash roughly every 5 minutes for the next hour
    evop.injector.enable_random_crashes(mean_interval_seconds=300.0,
                                        horizon=evop.sim.now + 3600.0)

    journeys = []
    for i in range(6):
        journey = UserJourney(evop.sim, evop.left(), f"chaos-user-{i}",
                              scenario="compaction")
        evop.sim.schedule(i * 60.0, journey.start)
        journeys.append(journey)

    evop.run_for(2 * 3600.0)

    completed = [j for j in journeys if j.log.completed]
    # the LB kept replacing capacity: every journey finished
    assert len(completed) == 6, [
        (j.user_name, [s.name for s in j.log.steps]) for j in journeys]
    # crashes really happened and were recovered
    crashes = [e for e in evop.injector.injected if e.kind == "crash"]
    assert crashes
    assert obs_of(evop.sim).events.events("lb.fault.detected")
    # the pool is healthy again afterwards
    service = evop.lb.service("left-morland")
    assert len(service.serving()) >= service.min_replicas


def test_widget_async_run_roundtrip():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2, seed=5)).bootstrap()
    evop.run_for(400.0)
    widget = evop.left().open_modelling_widget("async-user", model="fuse")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)

    signal = widget.run_async(poll_interval=5.0, duration_hours=240)
    evop.run_for(600.0)
    run = signal.value
    assert run is not None, widget.errors
    assert run.outputs["model"] == "fuse"
    assert len(widget.runs) == 1
    # polls took at least one interval: async is not a blocking call
    assert run.round_trip >= 5.0


def test_widget_async_reports_model_failure():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2, seed=5)).bootstrap()
    evop.run_for(400.0)
    widget = evop.left().open_modelling_widget("async-user")
    evop.run_for(10.0)
    widget.load()
    evop.run_for(10.0)
    # an invalid dataset reference makes the async execution fail
    signal = widget.run_async(poll_interval=5.0,
                              rainfall_dataset="user/ghost/nothing")
    evop.run_for(300.0)
    assert signal.value is None
    assert any("async run failed" in err for err in widget.errors)


def test_qc_pipeline_on_live_left_feed():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2, seed=7)).bootstrap()
    start = evop.sim.now
    evop.left().start_feeds(until=start + 12 * 3600.0)
    evop.run_for(12 * 3600.0)

    cleaned, report = evop.left().quality_controlled_series(
        "level-1", start, evop.sim.now)
    assert report.property_name == "river_level"
    assert report.total_samples > 40
    assert report.usable()
    assert cleaned.gap_count() == 0
    # levels stay physically plausible after QC
    assert 0.0 <= cleaned.maximum() <= 15.0


def test_sensor_to_timeseries_gridding():
    from repro.data import SensorNetwork
    from repro.services import SensorDescription
    from repro.sim import Simulator

    sim = Simulator()
    network = SensorNetwork(sim)
    sensor = network.add_sensor(
        SensorDescription("s", "river_level", "m", 54.0, -2.0),
        truth=lambda t: t / 3600.0, sampling_interval=900.0)
    sensor.start_feed(until=3600.0)
    sim.run(until=4000.0)
    ts = sensor.to_timeseries(0.0, 3600.0)
    assert len(ts) == 4
    assert ts.gap_count() == 1  # the t=0 interval has no sample yet
    assert ts.values[1] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        sensor.to_timeseries(0.0, 3600.0, dt=0.0)
