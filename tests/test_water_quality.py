"""Tests for the water-quality model and its WPS process."""

import pytest

from repro.core import Evop, EvopConfig
from repro.data import DesignStorm, STUDY_CATCHMENTS
from repro.hydrology import (
    SCENARIO_QUALITY_FACTORS,
    STANDARD_SCENARIOS,
    TopmodelParameters,
    WaterQualityModel,
    WaterQualityParameters,
)
from repro.modellib import make_water_quality_process
from repro.services import HttpRequest
from repro.sim import RandomStreams


@pytest.fixture(scope="module")
def hydrology():
    morland = STUDY_CATCHMENTS["morland"]
    model = morland.topmodel()
    rain = morland.weather_generator(RandomStreams(23)).rainfall_with_storm(
        120, DesignStorm(36, 8, 60.0), start_day_of_year=330)
    results = {}
    for key, scenario in STANDARD_SCENARIOS.items():
        results[key] = scenario.run(
            model, rain, base_parameters=TopmodelParameters(q0_mm_h=0.3))
    return results


def test_parameters_validate():
    with pytest.raises(ValueError):
        WaterQualityParameters(sediment_a=0).validated()
    with pytest.raises(ValueError):
        WaterQualityParameters(supply_mm=-1).validated()
    with pytest.raises(ValueError):
        WaterQualityParameters(nitrate_baseflow_mgl=-0.1).validated()


def test_concentrations_nonnegative_and_shaped(hydrology):
    result = WaterQualityModel().run(hydrology["baseline"])
    for series in (result.sediment_mgl, result.nitrate_mgl,
                   result.phosphorus_mgl):
        assert len(series) == len(result.flow)
        assert all(v >= 0 for v in series)
    # sediment peaks with the storm, not in baseflow
    assert result.sediment_mgl.argmax_time() == pytest.approx(
        result.flow.argmax_time(), abs=24 * 3600.0)


def test_nutrients_rise_with_quickflow(hydrology):
    result = WaterQualityModel().run(hydrology["baseline"])
    flow = result.flow
    storm_index = flow.index_at(flow.argmax_time())
    quiet_index = 5
    assert result.nitrate_mgl[storm_index] > result.nitrate_mgl[quiet_index]
    assert result.phosphorus_mgl[storm_index] > \
        result.phosphorus_mgl[quiet_index]


def test_scenarios_change_quality_as_expected(hydrology):
    area = STUDY_CATCHMENTS["morland"].area_km2
    loads = {}
    for key in ("baseline", "compaction", "afforestation"):
        result = WaterQualityModel().run(hydrology[key], scenario=key)
        loads[key] = result.summary(area)
    # the next-storyboard question answered: compaction pollutes,
    # afforestation cleans, relative to baseline
    assert loads["compaction"]["sediment_load_kg"] > \
        2 * loads["baseline"]["sediment_load_kg"]
    assert loads["afforestation"]["sediment_load_kg"] < \
        loads["baseline"]["sediment_load_kg"]
    assert loads["compaction"]["phosphorus_load_kg"] > \
        loads["baseline"]["phosphorus_load_kg"]


def test_supply_limitation_caps_long_events(hydrology):
    # repeating the same storm back to back: the second peak carries
    # less sediment because the supply was flushed
    flow = hydrology["baseline"]
    result = WaterQualityModel(
        WaterQualityParameters(supply_mm=5.0)).run(flow)
    exhausted = WaterQualityModel(
        WaterQualityParameters(supply_mm=500.0)).run(flow)
    assert result.sediment_mgl.maximum() <= exhausted.sediment_mgl.maximum()


def test_unknown_scenario_rejected(hydrology):
    with pytest.raises(ValueError):
        WaterQualityModel().run(hydrology["baseline"], scenario="marsforming")
    assert set(SCENARIO_QUALITY_FACTORS) == set(STANDARD_SCENARIOS)


def test_wps_process_runs_and_validates():
    process = make_water_quality_process(STUDY_CATCHMENTS["morland"])
    outputs = process.execute(process.validate(
        {"duration_hours": 96, "scenario": "compaction"}))
    assert outputs["model"] == "water-quality"
    assert outputs["peak_sediment_mgl"] > 0
    assert len(outputs["sediment_mgl"]) == 96
    baseline = process.execute(process.validate({"duration_hours": 96}))
    assert outputs["sediment_load_kg"] > baseline["sediment_load_kg"]


def test_water_quality_served_by_deployment():
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=37)).bootstrap()
    evop.run_for(400.0)
    entry = evop.library.get("water-quality-morland")
    assert entry.kind.value == "experimental"   # the incubator path
    address = evop.registry.first_address("left-morland")
    reply = evop.network.request(address, HttpRequest(
        "POST", "/v1/wps/processes/water-quality-morland/execute",
        body={"inputs": {"duration_hours": 72,
                         "scenario": "storage_ponds"}}),
        timeout=300.0)
    evop.run_for(120.0)
    assert reply.value.ok
    assert reply.value.body["outputs"]["scenario"] == "storage_ponds"
