"""DEM-derived catchments end to end, plus a churn soak test."""

import pytest

from repro.core import Evop, EvopConfig
from repro.data import DemGrid, DesignStorm
from repro.data import dem as dem_module
from repro.data.catchments import catchment_from_dem
from repro.hydrology import TopmodelParameters
from repro.sim import RandomStreams
from tests.test_chaos_and_async import random_crashes

# DEM analysis is the one data-layer feature that requires NumPy
needs_numpy = pytest.mark.skipif(not dem_module.HAVE_NUMPY,
                                 reason="NumPy absent")


@needs_numpy
def test_catchment_from_dem_runs_topmodel():
    dem = DemGrid.synthetic_valley(rows=30, cols=30, cell_size_m=50.0,
                                   seed=7)
    catchment = catchment_from_dem(
        "surveyed", "Surveyed Beck", dem, latitude=54.5, longitude=-2.5,
        annual_rainfall_mm=1300.0)
    # area: 30x30 cells of 50m = 2.25 km2
    assert catchment.area_km2 == pytest.approx(2.25)
    distribution = catchment.ti_distribution()
    assert sum(f for _t, f in distribution) == pytest.approx(1.0)
    # the derived distribution is the custom one, not the analytic shape
    assert catchment.custom_ti is not None
    assert distribution == [tuple(p) for p in catchment.custom_ti]

    generator = catchment.weather_generator(RandomStreams(3))
    rain = generator.rainfall_with_storm(
        96, DesignStorm(24, 8, 60.0), start_day_of_year=330)
    result = catchment.topmodel().run(
        rain, parameters=TopmodelParameters(q0_mm_h=0.3))
    assert result.flow.maximum() > 0.2
    assert abs(result.water_balance_error_mm) < 1e-6


@needs_numpy
def test_dem_catchment_differs_from_analytic():
    dem = DemGrid.synthetic_valley(rows=25, cols=25, seed=11)
    derived = catchment_from_dem("d", "D", dem, 54.0, -2.0)
    analytic = derived.__class__(
        name="a", display_name="A", country="", latitude=54.0,
        longitude=-2.0, area_km2=derived.area_km2,
        mean_ti=derived.mean_ti, ti_spread=1.0,
        annual_rainfall_mm=1200.0, flood_threshold_mm_h=2.0)
    assert derived.ti_distribution() != analytic.ti_distribution()


def test_soak_availability_under_sustained_churn():
    """Two simulated hours, users arriving continuously, periodic crashes.

    The paper's composite promise: elasticity + failure recovery keep
    the service available.  We require ≥90% of user runs to succeed
    despite a crash every ~10 minutes.
    """
    evop = Evop(EvopConfig(
        truth_days=4, storm_day=2, private_vcpus=12,
        sessions_per_replica=3, min_replicas=2,
        autoscale_interval=10.0, seed=71,
    )).bootstrap()
    evop.run_for(400.0)
    random_crashes(evop, mean_interval_seconds=600.0,
                   horizon=evop.sim.now + 7200.0)

    outcomes = {"ok": 0, "failed": 0}

    def user(i):
        yield i * 100.0  # one arrival every ~100s
        widget = evop.left().open_modelling_widget(f"soak-{i}")
        widget.request_timeout = 300.0
        waited = 0.0
        while widget.session.instance_address is None and waited < 600.0:
            yield 5.0
            waited += 5.0
        loaded = yield widget.load()
        if not loaded:
            outcomes["failed"] += 1
            return
        run = yield widget.run(duration_hours=96)
        outcomes["ok" if run is not None else "failed"] += 1
        evop.rb.disconnect(widget.session)

    total = 60
    for i in range(total):
        evop.sim.spawn(user(i), name=f"soak-{i}")
    evop.run_for(3 * 3600.0)

    assert outcomes["ok"] + outcomes["failed"] == total
    availability = outcomes["ok"] / total
    crashes = [e for e in evop.injector.injected if e.kind == "crash"]
    assert crashes, "the soak must actually have injected faults"
    assert availability >= 0.9, outcomes
    # and the estate healed
    service = evop.lb.service("left-morland")
    assert len(service.serving()) >= service.min_replicas
