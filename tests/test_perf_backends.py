"""EnsembleRunner backends: selection, cache neutrality, determinism.

The contract under test: cache keys never encode the backend, so a warm
cache populated by any backend serves every other; the vector and
process-pool backends return bit-identical sequences (the kernel is
chunk-invariant); failures replay as :class:`RunFailure` identically
everywhere; and the per-backend counters feed the telemetry plane.
"""

import random

import pytest

from repro.cloud import BlobStore
from repro.durable import DurableSweep, JournalStore
from repro.hydrology import TimeSeries, Topmodel, TopmodelParameters
from repro.hydrology.calibration import MonteCarloCalibrator
from repro.hydrology.vectorized import HAVE_NUMPY, TopmodelEnsemble
from repro.perf import EnsembleRunner, RunCache
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


def test_backend_and_chunk_size_validation(ensemble):
    with pytest.raises(ValueError, match="backend"):
        make_runner(ensemble, "gpu")
    with pytest.raises(ValueError, match="chunk_size"):
        make_runner(ensemble, "vector", chunk_size=0)


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
    assert (make_runner(ensemble, "process-pool").resolve_backend()
            == "process-pool")
    assert make_runner(ensemble, "scalar").resolve_backend() == "scalar"


# -- cross-backend determinism -----------------------------------------------


@needs_numpy
def test_vector_and_process_pool_bit_identical(ensemble):
    draws = draw_updates(9)
    vector = make_runner(ensemble, "vector").run_many(draws)
    pooled = make_runner(ensemble, "process-pool",
                         chunk_size=4).run_many(draws)
    assert all(identical(a, b) for a, b in zip(vector, pooled))


@needs_numpy
def test_process_pool_chunking_and_duplicates(ensemble):
    draws = draw_updates(6)
    with_dups = draws + [draws[2], draws[0]]
    cache = RunCache(max_entries=64)
    runner = make_runner(ensemble, "process-pool", cache=cache,
                         chunk_size=2)
    out = runner.run_many(with_dups)
    # duplicates resolve to the cached first-occurrence object
    assert out[6] is out[2]
    assert out[7] is out[0]
    assert runner.chunks_dispatched == 3     # 6 unique misses / chunks of 2
    assert runner.backend_runs["process-pool"] == 6


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


def test_run_failure_in_pool_chunk_spares_neighbours():
    toy = ToySim()
    draws = [{"x": float(i)} for i in range(5)]
    draws[2] = {"x": -4.0}
    runner = EnsembleRunner(toy, model_id="toy", forcing="f",
                            backend="process-pool", batch=toy.batch,
                            chunk_size=5)
    out = runner.run_many(draws, capture_errors=True)
    assert isinstance(out[2], RunFailure)
    # the rest of the poisoned chunk still computed
    assert out[0] == {"y": 0.0} and out[4] == {"y": 8.0}


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

    def sweep_results(backend, checkpoint_every, chunk_size=4):
        sim = Simulator()
        store = JournalStore(sim, BlobStore(sim, name="d"))
        runner = make_runner(ensemble, backend,
                             cache=RunCache(max_entries=64),
                             chunk_size=chunk_size)
        sweep = DurableSweep(runner, store, "sweep-x",
                             checkpoint_every=checkpoint_every)
        return sweep.run(draws), sweep

    vector, vsweep = sweep_results("vector", 5)
    pooled, _ = sweep_results("process-pool", 3)
    assert all(identical(a, b) for a, b in zip(vector, pooled))
    assert vsweep.checkpoints_written == 2
    # chunk boundaries follow the checkpoint interval
    assert vsweep.runner.chunks_dispatched == 3


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
    runner = make_runner(ensemble, "process-pool",
                         cache=RunCache(max_entries=32), workers=2,
                         chunk_size=2)
    runner.run_many(draws)
    stats = runner.stats()
    assert stats["runs{backend=process-pool}"] == 5
    assert stats["runs{backend=scalar}"] == 0
    assert stats["chunks_dispatched"] == 3
    assert stats["chunk_size"] == 2
    assert stats["pool_workers"] == 2
    # the scalar backend reports no pool
    assert make_runner(ensemble, "scalar").stats()["pool_workers"] == 0
