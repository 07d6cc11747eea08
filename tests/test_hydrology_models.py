"""Unit tests for TOPMODEL, FUSE, PET, metrics and scenarios."""

import math

import pytest

from repro.hydrology import (
    FuseDecisions,
    FuseModel,
    FuseParameters,
    HydrographAnalysis,
    STANDARD_SCENARIOS,
    TimeSeries,
    Topmodel,
    TopmodelParameters,
    fuse_ensemble,
    hamon_pet,
    kling_gupta_efficiency,
    nash_sutcliffe_efficiency,
    oudin_pet,
    peak_error,
    percent_bias,
    rmse,
)


def storm_series(tail=120):
    """Wet antecedent drizzle, an 8-hour storm, then recession."""
    values = [0.2] * 24 + [5, 8, 12, 15, 10, 6, 3, 1] + [0.1] * tail
    return TimeSeries(0, 3600, values, units="mm/step", name="rain")


@pytest.fixture()
def model():
    return Topmodel(Topmodel.exponential_ti_distribution(), dt_hours=1.0)


@pytest.fixture()
def wet_params():
    return TopmodelParameters(q0_mm_h=0.3)


# -- metrics ------------------------------------------------------------------


def test_nse_perfect_and_mean_model():
    obs = [1.0, 2.0, 3.0, 4.0]
    assert nash_sutcliffe_efficiency(obs, obs) == 1.0
    mean_model = [2.5] * 4
    assert nash_sutcliffe_efficiency(obs, mean_model) == pytest.approx(0.0)


def test_nse_skips_nan_pairs():
    obs = [1.0, math.nan, 3.0]
    sim = [1.0, 99.0, 3.0]
    assert nash_sutcliffe_efficiency(obs, sim) == 1.0


def test_nse_length_mismatch():
    with pytest.raises(ValueError):
        nash_sutcliffe_efficiency([1.0], [1.0, 2.0])


def test_rmse_and_pbias():
    obs = [2.0, 4.0]
    sim = [1.0, 3.0]
    assert rmse(obs, sim) == pytest.approx(1.0)
    assert percent_bias(obs, sim) == pytest.approx(100 * 2 / 6)


def test_kge_perfect():
    obs = [1.0, 2.0, 3.0]
    assert kling_gupta_efficiency(obs, obs) == pytest.approx(1.0)
    assert kling_gupta_efficiency(obs, [2.0, 4.0, 6.0]) < 1.0


def test_peak_error_sign():
    assert peak_error([1, 2, 4], [1, 2, 5]) == pytest.approx(0.25)
    assert peak_error([1, 2, 4], [1, 2, 3]) == pytest.approx(-0.25)


# -- PET ----------------------------------------------------------------------


def test_oudin_pet_seasonal_cycle():
    # one year at UK latitude, sinusoidal temperature
    temps = [9 + 7 * math.sin(2 * math.pi * (d - 105) / 365) for d in range(365)]
    pet = oudin_pet(temps, latitude_deg=54.5)
    assert len(pet) == 365
    assert all(p >= 0 for p in pet)
    summer = sum(pet[150:240])
    winter = sum(pet[0:60]) + sum(pet[330:365])
    assert summer > 3 * winter


def test_oudin_pet_zero_below_minus5():
    assert oudin_pet([-10.0], latitude_deg=54.5) == [0.0]


def test_hamon_positive_and_seasonal():
    pet_winter = hamon_pet([4.0], 54.5, first_day_of_year=15)[0]
    pet_summer = hamon_pet([16.0], 54.5, first_day_of_year=180)[0]
    assert 0 < pet_winter < pet_summer


# -- TOPMODEL ------------------------------------------------------------------


def test_topmodel_mass_balance_closes(model, wet_params):
    result = model.run(storm_series(), parameters=wet_params)
    assert abs(result.water_balance_error_mm) < 1e-6


def test_topmodel_storm_produces_flood_response(model, wet_params):
    rain = storm_series()
    result = model.run(rain, parameters=wet_params)
    analysis = HydrographAnalysis(result.flow, rain)
    # peak well above antecedent baseflow, after the storm begins
    assert analysis.peak() > 1.0
    assert result.flow.argmax_time() > 24 * 3600.0
    # contributing area expanded during the event
    assert result.saturated_fraction.maximum() > 0.0


def test_topmodel_flow_nonnegative(model, wet_params):
    result = model.run(storm_series(), parameters=wet_params)
    assert all(v >= 0 for v in result.flow)


def test_topmodel_wetter_start_gives_bigger_peak(model):
    rain = storm_series()
    dry = model.run(rain, parameters=TopmodelParameters(q0_mm_h=0.05))
    wet = model.run(rain, parameters=TopmodelParameters(q0_mm_h=0.6))
    assert wet.flow.maximum() > dry.flow.maximum()


def test_topmodel_pet_reduces_runoff(model, wet_params):
    rain = storm_series()
    pet = TimeSeries(0, 3600, [0.25] * len(rain))
    without = model.run(rain, parameters=wet_params)
    with_pet = model.run(rain, pet=pet, parameters=wet_params)
    assert with_pet.flow.total() < without.flow.total()
    assert with_pet.actual_et.total() > 0


def test_topmodel_interception_reduces_volume(model, wet_params):
    rain = storm_series()
    base = model.run(rain, parameters=wet_params)
    intercepted = model.run(
        rain, parameters=wet_params.with_updates(interception_mm=1.0))
    assert intercepted.flow.total() < base.flow.total()


def test_topmodel_low_infiltration_capacity_raises_peak(model, wet_params):
    rain = storm_series()
    base = model.run(rain, parameters=wet_params)
    compacted = model.run(
        rain, parameters=wet_params.with_updates(infiltration_capacity_mm_h=5.0))
    assert compacted.flow.maximum() > base.flow.maximum()


def test_topmodel_channel_delay_shifts_peak(model, wet_params):
    rain = storm_series()
    quick = model.run(rain, parameters=wet_params.with_updates(
        channel_delay_hours=0.0))
    slow = model.run(rain, parameters=wet_params.with_updates(
        channel_delay_hours=6.0))
    assert slow.flow.argmax_time() > quick.flow.argmax_time()


def test_topmodel_discharge_conversion(model, wet_params):
    result = model.run(storm_series(), parameters=wet_params)
    discharge = result.discharge_m3s(area_km2=12.0)
    # 1 mm/h over 12 km2 = 12e6 * 1e-3 / 3600 m3/s = 3.333 m3/s
    ratio = discharge.maximum() / result.flow.maximum()
    assert ratio == pytest.approx(12e6 * 1e-3 / 3600.0)


def test_topmodel_parameter_validation():
    with pytest.raises(ValueError):
        TopmodelParameters(m=-1).validated()
    with pytest.raises(ValueError):
        TopmodelParameters(sr0=1.5).validated()
    with pytest.raises(ValueError):
        TopmodelParameters(reservoir_k=0.0).validated()
    with pytest.raises(ValueError):
        TopmodelParameters(q0_mm_h=0.0).validated()


def test_ti_distribution_validation():
    with pytest.raises(ValueError):
        Topmodel([])
    with pytest.raises(ValueError):
        Topmodel([(5.0, 0.5), (6.0, 0.2)])  # fractions != 1
    with pytest.raises(ValueError):
        Topmodel.exponential_ti_distribution(classes=1)


def test_exponential_ti_distribution_normalised():
    dist = Topmodel.exponential_ti_distribution(mean_ti=7.0, classes=21)
    assert sum(f for _t, f in dist) == pytest.approx(1.0)
    assert len(dist) == 21


# -- FUSE -----------------------------------------------------------------------


def test_fuse_all_combinations_cover_decision_space():
    combos = FuseDecisions.all_combinations()
    assert len(combos) == 16
    assert len({c.label() for c in combos}) == 16


def test_fuse_invalid_decision_rejected():
    with pytest.raises(ValueError):
        FuseDecisions(upper_layer="three_buckets")


def test_fuse_run_responds_to_storm():
    rain = storm_series()
    result = FuseModel().run(rain)
    assert result.flow.maximum() > 0.2
    assert all(v >= 0 for v in result.flow)
    peak_time = result.flow.argmax_time()
    assert peak_time >= 24 * 3600.0


def test_fuse_structures_differ():
    rain = storm_series()
    a = FuseModel(FuseDecisions(baseflow="linear_reservoir")).run(rain)
    b = FuseModel(FuseDecisions(baseflow="nonlinear_reservoir")).run(rain)
    assert a.flow.values != b.flow.values


def test_fuse_parameter_validation():
    with pytest.raises(ValueError):
        FuseParameters(phi_tension=0.0).validated()
    with pytest.raises(ValueError):
        FuseParameters(smax_upper=-5).validated()


def test_fuse_ensemble_bounds_order():
    rain = storm_series(tail=48)
    ensemble = fuse_ensemble(rain)
    assert len(ensemble.members) == 16
    for i in range(len(rain)):
        assert ensemble.lower[i] <= ensemble.mean[i] + 1e-12
        assert ensemble.mean[i] <= ensemble.upper[i] + 1e-12
    assert len(set(ensemble.member_labels())) == 16


def test_fuse_ensemble_subset():
    rain = storm_series(tail=24)
    subset = [FuseDecisions(), FuseDecisions(percolation="power")]
    ensemble = fuse_ensemble(rain, decisions=subset)
    assert len(ensemble.members) == 2
    with pytest.raises(ValueError):
        fuse_ensemble(rain, decisions=[])


# -- scenarios -------------------------------------------------------------------


def test_scenarios_produce_expected_peak_ordering(model, wet_params):
    rain = storm_series()
    peaks = {}
    for key, scenario in STANDARD_SCENARIOS.items():
        result = scenario.run(model, rain, base_parameters=wet_params)
        peaks[key] = result.flow.maximum()
    assert peaks["compaction"] > peaks["baseline"]
    assert peaks["afforestation"] < peaks["baseline"]
    assert peaks["storage_ponds"] < peaks["baseline"]


def test_storage_ponds_conserve_volume(model, wet_params):
    rain = storm_series(tail=400)  # long tail so the ponds fully drain
    baseline = STANDARD_SCENARIOS["baseline"].run(
        model, rain, base_parameters=wet_params)
    ponds = STANDARD_SCENARIOS["storage_ponds"].run(
        model, rain, base_parameters=wet_params)
    assert ponds.flow.total() == pytest.approx(baseline.flow.total(), rel=0.02)


def test_scenario_slider_defaults_follow_parameters(wet_params):
    scenario = STANDARD_SCENARIOS["afforestation"]
    params = scenario.apply_parameters(wet_params)
    assert params.interception_mm == 1.2
    assert params.srmax == 70.0
    # untouched fields inherited from the base
    assert params.q0_mm_h == wet_params.q0_mm_h


def test_run_batch_bit_identical_to_individual_runs():
    model = Topmodel(Topmodel.exponential_ti_distribution())
    rain = storm_series()
    params = [TopmodelParameters(m=m, td=td)
              for m, td in ((8.0, 0.3), (20.0, 1.5), (45.0, 4.0))]
    batch = model.run_batch(rain, params)
    for p, batched in zip(params, batch):
        single = model.run(rain, parameters=p)
        assert batched.flow.values == single.flow.values
        assert batched.baseflow.values == single.baseflow.values
        assert batched.overland.values == single.overland.values
        assert batched.actual_et.values == single.actual_et.values
        assert batched.final_deficit_mm == single.final_deficit_mm


def test_prepare_sanitises_forcing_once():
    model = Topmodel(Topmodel.exponential_ti_distribution())
    rain = TimeSeries(0, 3600, [1.0, math.nan, -2.0, 3.0])
    forcing = model.prepare(rain)
    assert forcing.rain == (1.0, 0.0, 0.0, 3.0)
    assert forcing.pet is None
    assert forcing.n == 4
    # prepared runs match the unprepared path on dirty input
    direct = model.run(rain)
    prepared = model.run_prepared(forcing)
    assert prepared.flow.values == direct.flow.values


def test_prepare_rejects_mismatched_pet():
    model = Topmodel(Topmodel.exponential_ti_distribution())
    rain = storm_series()
    pet = TimeSeries(0, 3600, [0.1] * (len(rain) - 1))
    with pytest.raises(ValueError, match="PET"):
        model.prepare(rain, pet)
