"""The SoA vectorized TOPMODEL kernel: agreement, invariance, fallback.

The kernel's numerical contract (see ``repro.hydrology.vectorized``):
outputs agree with the scalar oracle within ``VECTOR_REL_BOUND``
(np.exp is the single per-step rounding source), and any chunking of
the parameter axis — including chunks of one — is bit-identical to the
whole batch.  Agreement, PET/NaN forcing and chunk invariance are
checked at the hourly step and off it (``DT_HOURS``): only off it does
the kernel scale the drainage flux by ``dt`` and round the channel
delay to a step count.
"""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydrology import TimeSeries, Topmodel, TopmodelParameters
from repro.hydrology import vectorized
from repro.hydrology.vectorized import (
    HAVE_NUMPY,
    VECTOR_ABS_BOUND,
    VECTOR_REL_BOUND,
    TopmodelEnsemble,
    run_batch_vectorized,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy absent")

SERIES_FIELDS = ("flow", "baseflow", "overland", "saturated_fraction",
                 "actual_et")
RANGES = {"m": (5.0, 60.0), "td": (0.1, 5.0), "q0_mm_h": (0.02, 1.0),
          "channel_delay_hours": (0.0, 6.0), "interception_mm": (0.0, 2.0)}
#: timesteps the scalar-agreement and chunk-invariance tests run at
DT_HOURS = (0.25, 1.0, 3.0)


def storm_series(tail=60):
    values = [0.2] * 24 + [5, 8, 12, 15, 10, 6, 3, 1] + [0.1] * tail
    return TimeSeries(0, 3600, values, units="mm/step", name="rain")


@pytest.fixture()
def model():
    return Topmodel(Topmodel.exponential_ti_distribution(), dt_hours=1.0)


def models():
    """``(dt_hours, model)`` at every step of :data:`DT_HOURS`."""
    for dt in DT_HOURS:
        yield dt, Topmodel(Topmodel.exponential_ti_distribution(),
                           dt_hours=dt)


def draw_params(count, seed=7):
    rng = random.Random(seed)
    return [TopmodelParameters().with_updates(
        **{k: rng.uniform(lo, hi) for k, (lo, hi) in RANGES.items()})
        for _ in range(count)]


def within_bound(a, b):
    """True when two results agree within the documented kernel bound."""
    for field in SERIES_FIELDS:
        for x, y in zip(getattr(a, field).values, getattr(b, field).values):
            if abs(x - y) <= VECTOR_ABS_BOUND:
                continue
            if abs(x - y) / max(abs(x), abs(y)) > VECTOR_REL_BOUND:
                return False
    return abs(a.final_deficit_mm - b.final_deficit_mm) <= max(
        VECTOR_ABS_BOUND,
        VECTOR_REL_BOUND * abs(a.final_deficit_mm))


def identical(a, b):
    return (all(getattr(a, f).values == getattr(b, f).values
                for f in SERIES_FIELDS)
            and a.final_deficit_mm == b.final_deficit_mm
            and a.water_balance_error_mm == b.water_balance_error_mm)


# -- agreement with the scalar oracle ----------------------------------------


@needs_numpy
def test_vector_agrees_with_scalar_within_bound():
    rain = storm_series()
    params = draw_params(16)
    for dt, model in models():
        forcing = model.prepare(rain)
        scalar = [model.run_prepared(forcing, p) for p in params]
        vector = run_batch_vectorized(model, forcing, params)
        assert len(vector) == len(scalar)
        for i, (a, b) in enumerate(zip(scalar, vector)):
            assert within_bound(a, b), f"set {i} diverged at dt {dt} h"


@needs_numpy
def test_vector_handles_pet_and_nan_forcing():
    values = [1.0, math.nan, 0.0, 4.0, -1.0] + [0.3] * 40
    rain = TimeSeries(0, 3600, values, units="mm/step", name="rain")
    pet = TimeSeries(0, 3600, [0.05] * len(values), units="mm/step",
                     name="pet")
    params = draw_params(5, seed=3)
    for dt, model in models():
        forcing = model.prepare(rain, pet)
        scalar = [model.run_prepared(forcing, p) for p in params]
        vector = run_batch_vectorized(model, forcing, params)
        for i, (a, b) in enumerate(zip(scalar, vector)):
            assert within_bound(a, b), f"set {i} diverged at dt {dt} h"
            # actual ET really ran (not the zero-filled no-PET path)
            assert b.actual_et.total() > 0.0


@needs_numpy
def test_model_delegation_matches_kernel(model):
    rain = storm_series()
    params = draw_params(4)
    direct = run_batch_vectorized(model, model.prepare(rain), params)
    via_ensemble = TopmodelEnsemble.prepare(model, rain).batch(
        [dataclasses.asdict(p) for p in params])
    for a, b in zip(via_ensemble, direct):
        assert identical(a, b)


# -- chunk invariance --------------------------------------------------------


@needs_numpy
def test_chunking_is_bit_identical_including_size_one():
    rain = storm_series()
    params = draw_params(11)
    for dt, model in models():
        forcing = model.prepare(rain)
        whole = run_batch_vectorized(model, forcing, params)
        for size in (1, 2, 3, 5, 10, 11):
            chunked = []
            for i in range(0, len(params), size):
                chunked.extend(
                    run_batch_vectorized(model, forcing, params[i:i + size]))
            assert all(identical(a, b) for a, b in zip(whole, chunked)), \
                f"chunk size {size} changed bits at dt {dt} h"


@needs_numpy
def test_empty_and_default_parameter_sets(model):
    forcing = model.prepare(storm_series())
    assert run_batch_vectorized(model, forcing, []) == []
    # None means "defaults", as in the scalar API
    defaulted = run_batch_vectorized(model, forcing, [None])[0]
    scalar = model.run_prepared(forcing, None)
    assert within_bound(scalar, defaulted)


# -- property test (satellite 3) ---------------------------------------------


@needs_numpy
@settings(max_examples=30, deadline=None)
@given(updates=st.fixed_dictionaries({
    "m": st.floats(5.0, 60.0),
    "td": st.floats(0.1, 5.0),
    "q0_mm_h": st.floats(0.02, 1.0),
    "interception_mm": st.floats(0.0, 2.0),
}))
def test_property_vector_matches_scalar(updates):
    """Any parameter draw: vector within the pinned bound of scalar.

    On failure hypothesis shrinks ``updates`` to a minimal offending
    parameter set and reports it.
    """
    model = Topmodel(Topmodel.exponential_ti_distribution(), dt_hours=1.0)
    forcing = model.prepare(storm_series(tail=24))
    params = TopmodelParameters().with_updates(**updates)
    scalar = model.run_prepared(forcing, params)
    vector = run_batch_vectorized(model, forcing, [params])[0]
    assert within_bound(scalar, vector), \
        f"vector diverged beyond bound for parameter set {updates!r}"


# -- NumPy-absent fallback ---------------------------------------------------


def test_fallback_without_numpy_is_bit_identical(model, monkeypatch):
    rain = storm_series()
    params = draw_params(3)
    scalar = model.run_batch(rain, params)
    monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
    fallback = run_batch_vectorized(model, model.prepare(rain), params)
    for a, b in zip(scalar, fallback):
        assert identical(a, b)


def test_ensemble_advertises_fallback(model, monkeypatch):
    monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
    ensemble = TopmodelEnsemble.prepare(model, storm_series())
    assert ensemble.vectorized is False
    # batch still answers, through the scalar loop
    out = ensemble.batch([{"m": 10.0}])
    scalar = ensemble({"m": 10.0})
    assert identical(out[0], scalar)


# -- TopmodelEnsemble / lazy results -----------------------------------------


def test_ensemble_pickles_and_reproduces(model):
    ensemble = TopmodelEnsemble.prepare(model, storm_series())
    clone = pickle.loads(pickle.dumps(ensemble))
    draw = {"m": 12.0, "td": 1.5}
    assert identical(ensemble(draw), clone(draw))
    a, = ensemble.batch([draw])
    b, = clone.batch([draw])
    assert identical(a, b)


@needs_numpy
def test_lazy_results_materialise_once_and_compare_equal(model):
    forcing = model.prepare(storm_series())
    params = draw_params(3)
    result = run_batch_vectorized(model, forcing, params)[1]
    scalar = model.run_prepared(forcing, params[1])
    # flow is eager; the diagnostics materialise on first read and are
    # then cached as plain attributes
    first = result.baseflow
    assert result.baseflow is first
    assert isinstance(result.saturated_fraction, TimeSeries)
    assert within_bound(scalar, result)
    with pytest.raises(AttributeError):
        result.no_such_field
