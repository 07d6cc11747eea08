"""Focused tests on remaining small corners of the API."""

import math

import pytest

from repro.hydrology import TimeSeries
from repro.sim import RandomStreams, Simulator
from repro.sim.kernel import SimulationError


# -- kernel corners ----------------------------------------------------------------


def test_run_process_surfaces_failure():
    sim = Simulator(strict=False)

    def bad():
        yield 1.0
        raise RuntimeError("boom")

    with pytest.raises(SimulationError):
        sim.run_process(bad())


def test_signal_discard_waiter_on_interrupt():
    sim = Simulator()
    gate = sim.signal("gate")

    def waiter():
        try:
            yield gate
        except Exception:
            pass
        return "interrupted-ok"

    proc = sim.spawn(waiter())
    sim.schedule(1.0, proc.interrupt, "cancel")
    sim.run()
    # the interrupted process no longer waits; firing later wakes nobody
    gate.fire("late")
    sim.run()
    assert not proc.alive


def test_event_handle_cancel_idempotent():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5.0, fired.append, 1)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.now == 0.0  # cancelled events never advance the clock


def test_process_join_failed_child_gives_none_result():
    sim = Simulator(strict=False)

    def child():
        yield 1.0
        raise ValueError("child died")

    def parent():
        proc = sim.spawn(child())
        yield proc
        return proc.result

    parent_proc = sim.spawn(parent())
    sim.run()
    assert parent_proc.result is None
    assert sim.failures


# -- PET extremes ----------------------------------------------------------------------


def test_extraterrestrial_radiation_polar_extremes():
    from repro.hydrology.pet import daylight_hours, extraterrestrial_radiation
    # polar winter: almost no daylight; polar summer: midnight sun
    assert daylight_hours(80.0, 355) < 0.5
    assert daylight_hours(80.0, 172) > 23.5
    assert extraterrestrial_radiation(80.0, 355) < 1.0
    assert extraterrestrial_radiation(80.0, 172) > 30.0


def test_oudin_equator_vs_pole():
    from repro.hydrology.pet import oudin_pet
    equator = sum(oudin_pet([25.0] * 365, latitude_deg=0.0))
    arctic = sum(oudin_pet([25.0] * 365, latitude_deg=75.0))
    assert equator > arctic


# -- routing validation ------------------------------------------------------------------


def test_gamma_route_validation():
    from repro.hydrology.fuse import gamma_route
    with pytest.raises(ValueError):
        gamma_route([1.0], shape=0.0, scale_steps=1.0)
    with pytest.raises(ValueError):
        gamma_route([1.0], shape=1.0, scale_steps=0.0)
    assert gamma_route([], shape=1.0, scale_steps=1.0) == []


# -- weather validation -------------------------------------------------------------------


def test_weather_generator_validation():
    from repro.data.weather import WeatherGenerator
    with pytest.raises(ValueError):
        WeatherGenerator(wet_persistence=1.5)
    with pytest.raises(ValueError):
        WeatherGenerator(dry_persistence=0.0)


# -- timeseries slice/arithmetic edge ---------------------------------------------------------


def test_timeseries_scalar_ops_and_iteration():
    ts = TimeSeries(0, 60, [1.0, 2.0, 3.0])
    assert (ts - 1).values == [0.0, 1.0, 2.0]
    assert list(ts) == [1.0, 2.0, 3.0]
    assert ts.gap_count() == 0


def test_timeseries_single_sample_statistics():
    ts = TimeSeries(0, 60, [7.0])
    assert ts.mean() == 7.0
    assert ts.maximum() == 7.0
    assert ts.argmax_time() == 0.0


# -- sos widget filter -----------------------------------------------------------------------


def test_sos_temporal_filter_defaults():
    from repro.services.sos import SosService
    from repro.services.transport import HttpRequest
    begin, end = SosService._temporal_filter(HttpRequest("GET", "/x"))
    assert begin == 0.0
    assert end == float("inf")


# -- provisioning totals ------------------------------------------------------------------------


def test_recipe_apply_process_joinable():
    from repro.cloud import (
        Flavor, ImageKind, Instance, MachineImage, ProvisioningRecipe,
    )
    sim = Simulator()
    image = MachineImage(image_id="i", name="inc", kind=ImageKind.INCUBATOR)
    instance = Instance(sim, "os-0", "openstack", image,
                        Flavor("m", 1, 1024, 10))
    instance._mark_running()
    recipe = ProvisioningRecipe("r").add_step("a", 10.0)

    def driver():
        return (yield recipe.apply(sim, instance))

    result = sim.run_process(driver())
    assert result == ["a"]
    assert sim.now == pytest.approx(10.0)


# -- streams stability across forks -------------------------------------------------------------


def test_forked_streams_do_not_collide_with_root():
    root = RandomStreams(9)
    fork = root.fork("child")
    a = [root.get("x").random() for _ in range(3)]
    b = [fork.get("x").random() for _ in range(3)]
    assert a != b
