"""Tests for the model-run fast path: canonical keys, the run cache and
the shared ensemble runner (including the parallel backend's determinism
guarantees, property-tested with hypothesis)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hydrology import MonteCarloCalibrator, TimeSeries
from repro.perf import (
    CanonicalisationError,
    EnsembleRunner,
    RunCache,
    RunFailure,
    canonical_json,
    content_key,
    forcing_digest,
    run_key,
)


# -- canonical keys ---------------------------------------------------------


def test_content_key_ignores_dict_order():
    assert content_key({"a": 1, "b": 2.5}) == content_key({"b": 2.5, "a": 1})


def test_content_key_unifies_tuples_and_lists():
    assert content_key({"v": (1, 2, 3)}) == content_key({"v": [1, 2, 3]})


def test_canonical_json_is_stable_text():
    assert canonical_json({"b": [1, (2, 3)], "a": None}) \
        == '{"a":null,"b":[1,[2,3]]}'


def test_canonicalisation_rejects_objects_with_path():
    class Opaque:
        pass

    with pytest.raises(CanonicalisationError) as err:
        content_key({"params": {"model": Opaque()}})
    assert "value.params.model" in str(err.value)
    assert "Opaque" in str(err.value)


def test_canonicalisation_rejects_non_string_keys():
    with pytest.raises(CanonicalisationError):
        content_key({1: "one"})


def test_run_key_separates_model_forcing_and_params():
    base = run_key("topmodel:a", {"m": 10.0}, "f1")
    assert run_key("topmodel:b", {"m": 10.0}, "f1") != base
    assert run_key("topmodel:a", {"m": 11.0}, "f1") != base
    assert run_key("topmodel:a", {"m": 10.0}, "f2") != base
    assert run_key("topmodel:a", {"m": 10.0}, "f1") == base


def test_forcing_digest_content_not_presentation():
    a = TimeSeries(0, 3600, [1.0, 2.0], name="a", units="mm")
    b = TimeSeries(0, 3600, [1.0, 2.0], name="b", units="in")
    c = TimeSeries(0, 3600, [1.0, 2.5], name="a", units="mm")
    assert forcing_digest(a) == forcing_digest(b)
    assert forcing_digest(a) != forcing_digest(c)
    # an absent PET series is content too
    assert forcing_digest(a, None) != forcing_digest(a)


# -- run cache --------------------------------------------------------------


def test_runcache_hit_miss_counters():
    cache = RunCache()
    found, _value = cache.lookup("k1")
    assert not found and cache.misses == 1
    cache.store("k1", "result")
    found, value = cache.lookup("k1")
    assert found and value == "result" and cache.hits == 1
    assert cache.stats()["hit_rate"] == 0.5


def test_runcache_lru_eviction_order():
    cache = RunCache(max_entries=2)
    cache.store("a", 1)
    cache.store("b", 2)
    cache.lookup("a")            # refresh a: b becomes LRU
    cache.store("c", 3)
    assert cache.peek("a") and cache.peek("c") and not cache.peek("b")
    assert cache.evictions == 1


# -- ensemble runner --------------------------------------------------------


def quadratic(params):
    return [params["x"] * params["x"], params["x"] + params["y"]]


def test_runner_caches_by_content():
    cache = RunCache()
    runner = EnsembleRunner(quadratic, model_id="quad", cache=cache)
    first = runner.run_one({"x": 2.0, "y": 1.0})
    again = runner.run_one({"y": 1.0, "x": 2.0})   # different dict order
    assert first == again == [4.0, 3.0]
    assert cache.hits == 1 and cache.misses == 1


def test_runner_captures_deterministic_failures():
    def explode(params):
        raise ValueError(f"bad draw {params['x']}")

    cache = RunCache()
    runner = EnsembleRunner(explode, model_id="boom", cache=cache)
    captured = runner.run_one({"x": 1.0}, capture_errors=True)
    assert isinstance(captured, RunFailure)
    assert captured.error_type == "ValueError"
    # a cached failure re-raises when the caller is not capturing
    with pytest.raises(ValueError, match="bad draw"):
        runner.run_one({"x": 1.0})
    assert cache.hits == 1      # the model itself never re-ran


def test_runner_parallel_computes_each_unique_set_once():
    calls = []

    def record(params):
        calls.append(params["x"])
        return params["x"]

    runner = EnsembleRunner(record, cache=RunCache())
    out = runner.run_many([{"x": 1.0}, {"x": 2.0}, {"x": 1.0}, {"x": 2.0}])
    assert out == [1.0, 2.0, 1.0, 2.0]
    assert sorted(calls) == [1.0, 2.0]


def test_runner_emits_span_when_given_a_sim():
    from repro.obs.hub import obs_of
    from repro.sim import Simulator

    sim = Simulator()
    runner = EnsembleRunner(quadratic, model_id="quad",
                            cache=RunCache(), sim=sim)
    runner.run_many([{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": 2.0}])
    spans = [s for s in obs_of(sim).tracer.spans()
             if s.name == "ensemble.run quad"]
    assert spans and spans[0].attributes["cache_hits"] == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_cache_hits_never_change_calibration_results(seed):
    """Property: re-running a calibration against a warm cache yields the
    same draws and the same scores as the cold run."""
    def simulate(params):
        return [params["a"] * v + params["b"] for v in (1.0, 2.0, 3.0)]

    observed = [1.5, 2.5, 3.5]
    ranges = {"a": (0.5, 1.5), "b": (-1.0, 1.0)}
    cache = RunCache()
    runner = EnsembleRunner(simulate, model_id="linear", cache=cache)

    cold = MonteCarloCalibrator(
        ranges=ranges, runner=runner,
        rng=random.Random(seed)).calibrate(observed, iterations=15)
    warm = MonteCarloCalibrator(
        ranges=ranges, runner=runner,
        rng=random.Random(seed)).calibrate(observed, iterations=15)

    assert [s.parameters for s in warm.samples] \
        == [s.parameters for s in cold.samples]
    assert [s.score for s in warm.samples] == [s.score for s in cold.samples]
    assert warm.best.parameters == cold.best.parameters
    assert cache.hits >= 15      # the warm pass re-ran nothing
