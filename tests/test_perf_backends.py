"""EnsembleRunner backends: selection, cache neutrality, determinism.

The contract under test: cache keys never encode the backend, so a warm
cache populated by either backend serves the other; the vector backend
matches the scalar one; failures replay as :class:`RunFailure`
identically on both; and the per-backend counters feed the telemetry
plane.
"""

import random

import pytest

from repro.cloud import BlobStore
from repro.durable import DurableSweep, JournalStore
from repro.hydrology import TimeSeries, Topmodel, TopmodelParameters
from repro.hydrology.calibration import MonteCarloCalibrator
from repro.hydrology.vectorized import (
    HAVE_NUMPY,
    VECTOR_ABS_BOUND,
    VECTOR_REL_BOUND,
    TopmodelEnsemble,
)
from repro.obs.hub import obs_of
from repro.perf import EnsembleRunner, RunCache
from repro.perf.keys import run_key
from repro.perf.runner import RunFailure
from repro.sim import Simulator

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy absent")

SERIES_FIELDS = ("flow", "baseflow", "overland", "saturated_fraction",
                 "actual_et")


def storm_series(tail=48):
    values = [0.2] * 24 + [5, 8, 12, 15, 10, 6, 3, 1] + [0.1] * tail
    return TimeSeries(0, 3600, values, units="mm/step", name="rain")


def draw_updates(count, seed=11):
    rng = random.Random(seed)
    ranges = {"m": (5.0, 60.0), "td": (0.1, 5.0), "q0_mm_h": (0.02, 1.0)}
    return [{k: rng.uniform(lo, hi) for k, (lo, hi) in ranges.items()}
            for _ in range(count)]


def identical(a, b):
    return (all(getattr(a, f).values == getattr(b, f).values
                for f in SERIES_FIELDS)
            and a.final_deficit_mm == b.final_deficit_mm
            and a.water_balance_error_mm == b.water_balance_error_mm)


@pytest.fixture()
def ensemble():
    model = Topmodel(Topmodel.exponential_ti_distribution(), dt_hours=1.0)
    return TopmodelEnsemble.prepare(model, storm_series())


def make_runner(ensemble, backend, cache=None, **kwargs):
    return EnsembleRunner(ensemble, model_id="topmodel:test",
                          forcing="storm-1", cache=cache, backend=backend,
                          batch=ensemble.batch, **kwargs)


class ToySim:
    """Scalar + batch toy with a poisoned region (x < 0 raises)."""

    vectorized = True

    def __call__(self, params):
        if params["x"] < 0:
            raise ValueError("negative x is non-behavioural")
        return {"y": params["x"] * 2.0}

    def batch(self, parameter_sets):
        return [self(p) for p in parameter_sets]


# -- backend selection -------------------------------------------------------


def test_backend_validation_names_the_two_backends(ensemble):
    assert EnsembleRunner(ToySim()).backend == "scalar"
    for unknown in ("gpu", "process-pool"):
        with pytest.raises(ValueError) as raised:
            make_runner(ensemble, unknown)
        assert "('scalar', 'vector')" in str(raised.value)
    # the pool's sizing options went with it
    for option in ("workers", "chunk_size"):
        with pytest.raises(TypeError, match=option):
            make_runner(ensemble, "vector", **{option: 2})


def test_resolve_backend_falls_back_without_batch():
    runner = EnsembleRunner(ToySim(), backend="vector")   # no batch bound
    assert runner.resolve_backend() == "scalar"


def test_resolve_backend_respects_vectorized_flag(ensemble):
    toy = ToySim()
    toy.vectorized = False
    runner = EnsembleRunner(toy, backend="vector", batch=toy.batch)
    assert runner.resolve_backend() == "scalar"
    # and the evaluations really run on the scalar path
    out = runner.run_many([{"x": 1.0}, {"x": 2.0}])
    assert out == [{"y": 2.0}, {"y": 4.0}]
    assert runner.backend_runs["scalar"] == 2
    assert runner.backend_runs["vector"] == 0


@needs_numpy
def test_resolve_backend_selects_requested(ensemble):
    assert make_runner(ensemble, "vector").resolve_backend() == "vector"
    assert make_runner(ensemble, "scalar").resolve_backend() == "scalar"


# -- one vector batch ----------------------------------------------------------


@needs_numpy
def test_vector_batch_resolves_duplicates_once(ensemble):
    draws = draw_updates(6)
    with_dups = draws + [draws[2], draws[0]]
    cache = RunCache(max_entries=64)
    runner = make_runner(ensemble, "vector", cache=cache)
    out = runner.run_many(with_dups)
    # duplicates resolve to the cached first-occurrence object
    assert out[6] is out[2]
    assert out[7] is out[0]
    assert runner.chunks_dispatched == 1     # 6 unique misses, one batch
    assert runner.backend_runs["vector"] == 6
    # a warm re-run dispatches nothing
    runner.run_many(with_dups)
    assert runner.chunks_dispatched == 1


# -- run-key backend neutrality (satellite 1) --------------------------------


@needs_numpy
def test_warm_cache_serves_across_backends_both_ways(ensemble):
    draws = draw_updates(7)
    # vector populates, scalar reads: every lookup is a hit and the
    # returned objects are the cached ones
    cache = RunCache(max_entries=64)
    vector_out = make_runner(ensemble, "vector", cache=cache).run_many(draws)
    scalar_runner = make_runner(ensemble, "scalar", cache=cache)
    scalar_out = scalar_runner.run_many(draws)
    assert all(a is b for a, b in zip(vector_out, scalar_out))
    assert scalar_runner.backend_runs["scalar"] == 0
    # scalar populates, vector reads
    cache2 = RunCache(max_entries=64)
    scalar_first = make_runner(ensemble, "scalar",
                               cache=cache2).run_many(draws)
    vector_runner = make_runner(ensemble, "vector", cache=cache2)
    vector_second = vector_runner.run_many(draws)
    assert all(a is b for a, b in zip(scalar_first, vector_second))
    assert vector_runner.backend_runs["vector"] == 0


def test_run_failure_replays_identically_across_backends():
    toy = ToySim()
    draws = [{"x": 3.0}, {"x": -1.0}, {"x": 5.0}]
    cache = RunCache(max_entries=16)
    vector_runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                                   cache=cache, backend="vector",
                                   batch=toy.batch)
    out = vector_runner.run_many(draws, capture_errors=True)
    assert out[0] == {"y": 6.0}
    assert isinstance(out[1], RunFailure)
    assert out[1].error_type == "ValueError"
    # the cached failure replays through the scalar backend without
    # re-running the model, and raises when errors are not captured
    scalar_runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                                   cache=cache, backend="scalar")
    replay = scalar_runner.run_many(draws, capture_errors=True)
    assert replay[1] is out[1]
    assert scalar_runner.backend_runs["scalar"] == 0
    with pytest.raises(ValueError, match="cached run failed"):
        scalar_runner.run_many(draws)


def test_run_failure_in_vector_batch_spares_neighbours():
    toy = ToySim()
    draws = [{"x": float(i)} for i in range(5)]
    draws[2] = {"x": -4.0}
    runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                            backend="vector", batch=toy.batch)
    out = runner.run_many(draws, capture_errors=True)
    assert runner.chunks_dispatched == 1
    assert isinstance(out[2], RunFailure)
    # the rest of the poisoned batch still computed
    assert out[:2] + out[3:] == [{"y": 0.0}, {"y": 2.0}, {"y": 6.0},
                                 {"y": 8.0}]


# -- analysis flow-through ---------------------------------------------------


@needs_numpy
def test_calibration_through_vector_backend(ensemble):
    class FlowSim:
        def __init__(self, ens):
            self.ens = ens
            self.vectorized = ens.vectorized

        def __call__(self, updates):
            return self.ens(updates).flow.values

        def batch(self, update_sets):
            return [r.flow.values for r in self.ens.batch(update_sets)]

    sim = FlowSim(ensemble)
    observed = sim({"m": 20.0, "td": 1.0, "q0_mm_h": 0.3})
    ranges = {"m": (5.0, 60.0), "td": (0.1, 5.0), "q0_mm_h": (0.02, 1.0)}

    def calibrate(backend):
        runner = EnsembleRunner(sim, model_id="topmodel:test",
                                forcing="storm-1", backend=backend,
                                batch=sim.batch,
                                cache=RunCache(max_entries=128))
        calibrator = MonteCarloCalibrator(ranges, runner=runner,
                                          rng=random.Random(42))
        return calibrator.calibrate(observed, iterations=30)

    scalar = calibrate("scalar")
    vector = calibrate("vector")
    assert len(scalar.samples) == len(vector.samples)
    for a, b in zip(scalar.samples, vector.samples):
        assert a.parameters == b.parameters
        assert a.score == pytest.approx(b.score, rel=1e-6, abs=1e-9)
    assert (len(scalar.behavioural) == len(vector.behavioural))


# -- durable sweeps ----------------------------------------------------------


@needs_numpy
def test_durable_sweep_bit_identical_across_backends(ensemble):
    draws = draw_updates(13)

    def sweep_results(backend, checkpoint_every):
        sim = Simulator()
        store = JournalStore(sim, BlobStore(sim, name="d"))
        runner = make_runner(ensemble, backend,
                             cache=RunCache(max_entries=64))
        sweep = DurableSweep(runner, store, "sweep-x",
                             checkpoint_every=checkpoint_every)
        return sweep.run(draws), sweep

    vector, vsweep = sweep_results("vector", 5)
    # another checkpoint interval splits the batches elsewhere: the
    # kernel's chunk invariance keeps every bit
    resplit, _ = sweep_results("vector", 3)
    assert all(identical(a, b) for a, b in zip(vector, resplit))
    # the scalar loop agrees with the kernel within its documented bound
    scalar, _ = sweep_results("scalar", 5)
    assert len(scalar) == len(vector) == len(draws)
    for a, b in zip(scalar, vector):
        assert b.flow.values == pytest.approx(
            a.flow.values, rel=VECTOR_REL_BOUND, abs=VECTOR_ABS_BOUND)
    assert vsweep.checkpoints_written == 2
    # one kernel batch per attempt, whatever the checkpoint interval
    assert vsweep.runner.chunks_dispatched == 1


@needs_numpy
def test_durable_sweep_crash_resume_stays_on_vector_kernel(ensemble):
    draws = draw_updates(13)
    baseline, _ = _vector_sweep(ensemble, draws, "sweep-base")
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim, name="d"))
    runner = make_runner(ensemble, "vector",
                         cache=RunCache(max_entries=64))
    sweep = DurableSweep(runner, store, "sweep-c", checkpoint_every=5)
    assert sweep.run(draws, interrupt_after=7) is None
    resumed = DurableSweep(make_runner(ensemble, "vector",
                                       cache=RunCache(max_entries=64)),
                           store, "sweep-c", checkpoint_every=5)
    results = resumed.run(draws)
    assert resumed.resumed_from == 5
    assert all(identical(a, b) for a, b in zip(baseline, results))


@needs_numpy
def test_durable_sweep_is_one_kernel_batch_per_attempt(ensemble):
    draws = draw_updates(15)
    baseline, _ = _vector_sweep(ensemble, draws, "sweep-base")
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim, name="d"))
    runner = make_runner(ensemble, "vector",
                         cache=RunCache(max_entries=64))
    fresh = DurableSweep(runner, store, "sweep-one", checkpoint_every=5)
    assert all(identical(a, b) for a, b in zip(baseline, fresh.run(draws)))
    assert runner.chunks_dispatched == 1
    assert fresh.checkpoints_written == 3
    # a crashed attempt is one batch, and its resumption one more
    runner = make_runner(ensemble, "vector",
                         cache=RunCache(max_entries=64))
    crashed = DurableSweep(runner, store, "sweep-two", checkpoint_every=5)
    assert crashed.run(draws, interrupt_after=7) is None
    assert (runner.chunks_dispatched, crashed.checkpoints_written) == (1, 1)
    resumed = DurableSweep(runner, store, "sweep-two", checkpoint_every=5)
    results = resumed.run(draws)
    assert (runner.chunks_dispatched, resumed.checkpoints_written) == (2, 2)
    assert all(identical(a, b) for a, b in zip(baseline, results))
    assert [r.payload["completed"] for r in store.open("sweep-two").records()
            if r.kind == "CHECKPOINT"] == [5, 10, 15]


def test_vector_batch_counts_repeats_as_the_scalar_loop_does():
    toy = ToySim()
    draws = [{"x": float(i)} for i in range(4)]
    with_dups = draws + [draws[1], draws[1], draws[3]]
    counts = {}
    for backend in ("scalar", "vector"):
        cache = RunCache(max_entries=16)
        runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                                cache=cache, backend=backend,
                                batch=toy.batch)
        runner.run_many(draws[:1])
        runner.run_many(with_dups)
        counts[backend] = (cache.hits, cache.misses)
    assert counts["vector"] == counts["scalar"] == (4, 4)


def test_vector_batch_larger_than_the_cache_looks_each_set_up_once():
    toy = ToySim()
    x = [{"x": float(i)} for i in range(4)]
    counts, entries = {}, {}
    for backend in ("scalar", "vector"):
        cache = RunCache(max_entries=2)
        runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                                cache=cache, backend=backend,
                                batch=toy.batch)
        runner.run_many(x[:1])
        # x1's first occurrence is evicted before its repeat: a miss,
        # stored again, on both backends
        assert runner.run_many([x[0], x[1], x[2], x[3], x[1]]) == \
            [toy(p) for p in (x[0], x[1], x[2], x[3], x[1])]
        entries[backend] = list(cache._entries)
        # x3 is a hit resolved up front by the vector batch; the scalar
        # loop's store of x0 evicts it first: the counts part here
        runner.run_many([x[0], x[2], x[3]])
        counts[backend] = (cache.hits, cache.misses)
    assert entries["vector"] == entries["scalar"]
    assert counts == {"scalar": (1, 8), "vector": (2, 7)}


class BrokenKernel(ToySim):
    """A batch that raises an error no run captures."""

    def batch(self, parameter_sets):
        if any(p["x"] == 6.0 for p in parameter_sets):
            raise TypeError("x=6 breaks the kernel")
        return super().batch(parameter_sets)


def test_failed_attempt_batch_is_retried_interval_by_interval():
    toy = BrokenKernel()
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim, name="d"))
    runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                            cache=RunCache(max_entries=64), sim=sim,
                            backend="vector", batch=toy.batch)
    sweep = DurableSweep(runner, store, "sweep-f", checkpoint_every=4)
    with pytest.raises(TypeError, match="x=6"):
        sweep.run([{"x": float(i)} for i in range(10)])
    assert sweep.checkpoints_written == 1
    assert [r.payload["completed"] for r in store.open("sweep-f").records()
            if r.kind == "CHECKPOINT"] == [4]
    # the failed attempt batch looked up all 10 sets and dispatched once;
    # the retry then looks up, dispatches and spans [0, 4) and [4, 8)
    # again (8 misses and 2 dispatches at the parent)
    stats = runner.stats()
    assert (stats["hits"], stats["misses"]) == (0, 18)
    assert stats["chunks_dispatched"] == 3
    assert stats["runs{backend=vector}"] == 4
    spans = obs_of(sim).tracer.spans()
    assert [s.attributes["runs"] for s in spans
            if s.name == "ensemble.run toy"] == [10, 4, 4]
    [swept] = [s for s in spans if s.name == "durable.sweep"]
    assert swept.attributes["batch_failed"] == "TypeError: x=6 breaks the kernel"


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_cold_sweep_attempt_keys_each_set_once(monkeypatch, backend):
    from repro.perf import runner as perf_runner
    keyed = []

    def counting(model_id, parameters, forcing=""):
        keyed.append(parameters["x"])
        return run_key(model_id, parameters, forcing)

    monkeypatch.setattr(perf_runner, "run_key", counting)
    toy = ToySim()
    sim = Simulator()
    blobstore = BlobStore(sim, name="d")
    runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                            cache=RunCache(max_entries=64), backend=backend,
                            batch=toy.batch)
    sweep = DurableSweep(runner, JournalStore(sim, blobstore), "sweep-k",
                         checkpoint_every=4,
                         effects=blobstore.create_container("results"))
    sweep.run([{"x": float(i)} for i in range(10)])
    assert sorted(keyed) == [float(i) for i in range(10)]
    assert sweep.effects_applied == 10


def _vector_sweep(ensemble, draws, sweep_id):
    sim = Simulator()
    store = JournalStore(sim, BlobStore(sim, name="d"))
    runner = make_runner(ensemble, "vector",
                         cache=RunCache(max_entries=64))
    sweep = DurableSweep(runner, store, sweep_id, checkpoint_every=5)
    return sweep.run(draws), sweep


# -- stats (satellite 6) -----------------------------------------------------


@needs_numpy
def test_stats_report_per_backend_counters(ensemble):
    draws = draw_updates(5)
    runner = make_runner(ensemble, "vector", cache=RunCache(max_entries=32))
    runner.run_many(draws)
    stats = runner.stats()
    assert stats["runs{backend=vector}"] == 5
    assert stats["runs{backend=scalar}"] == 0
    assert stats["chunks_dispatched"] == 1
    # no pool, so none of its keys
    assert not {"runs{backend=process-pool}", "chunk_size",
                "pool_workers"} & stats.keys()
    assert not {"chunk_size", "pool_workers"} & \
        make_runner(ensemble, "scalar").stats().keys()
