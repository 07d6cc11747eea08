"""CAL — offline calibration adequately reproduces observed discharge.

Section V-B: "Model calibration was carried out offline to ensure that
input data and parameters were in the correct format and the model could
adequately reproduce observed discharge at the outlet of the catchment."

The bench calibrates TOPMODEL against a synthetic truth (hidden
parameters) on each LEFT catchment and reports the best NSE, the
behavioural population, and the GLUE bounds' coverage of the
observations — 'adequate reproduction' made quantitative.

Both analysis paths run: a bare ``simulate`` (each analysis gets an
uncached runner of its own) and one shared
:class:`~repro.perf.runner.EnsembleRunner`, where calibration and
GLUE share one :class:`~repro.perf.runcache.RunCache` so the behavioural
re-runs are pure cache hits.  The bench asserts the two paths agree
bit-for-bit and that GLUE re-ran nothing, and reports what the cache
buys as model evaluations — a count that repeats exactly.
"""

from benchmarks.harness import once, print_table
from repro.data import DesignStorm, STUDY_CATCHMENTS
from repro.hydrology import (
    GlueAnalysis,
    MonteCarloCalibrator,
    TopmodelParameters,
)
from repro.perf import EnsembleRunner, RunCache, forcing_digest
from repro.sim import RandomStreams

ITERATIONS = 200
CATCHMENTS = ("morland", "tarland", "machynlleth")
RANGES = {"m": (5.0, 60.0), "td": (0.1, 5.0), "q0_mm_h": (0.02, 1.0)}


def calibration_rng(name: str):
    """A fresh sampler per call, the same for ``name`` in every process.

    (``hash(str)`` is salted per process, so it cannot seed anything a
    gate reads.)
    """
    return RandomStreams(29).get(f"calibration.{name}")


def calibrate_catchment(name: str):
    catchment = STUDY_CATCHMENTS[name]
    model = catchment.topmodel()
    generator = catchment.weather_generator(RandomStreams(29))
    rain = generator.rainfall_with_storm(
        24 * 12, DesignStorm(72, 10, 65.0), start_day_of_year=330)

    truth = TopmodelParameters(m=18.0, td=0.8, q0_mm_h=0.35)
    observed = model.run(rain, parameters=truth).flow.values

    def simulate(params):
        p = TopmodelParameters().with_updates(
            m=params["m"], td=params["td"], q0_mm_h=params["q0_mm_h"])
        return model.run(rain, parameters=p).flow.values

    direct_evaluations = [0]

    def counted(params):
        direct_evaluations[0] += 1
        return simulate(params)

    # no shared cache: every GLUE re-run pays full model time
    direct = MonteCarloCalibrator(
        ranges=RANGES, simulate=counted,
        rng=calibration_rng(name),
    ).calibrate(observed, iterations=ITERATIONS, behavioural_threshold=0.6)
    direct_glue = GlueAnalysis(counted).run(direct, dt=3600.0)

    # the fast path: calibration and GLUE share one run cache
    runner = EnsembleRunner(
        simulate, model_id=f"topmodel:{name}",
        forcing=forcing_digest(rain), cache=RunCache(max_entries=2048))
    calibration = MonteCarloCalibrator(
        ranges=RANGES, runner=runner,
        rng=calibration_rng(name),
    ).calibrate(observed, iterations=ITERATIONS, behavioural_threshold=0.6)
    glue = GlueAnalysis(runner=runner).run(calibration, dt=3600.0)

    # identical science on both paths, sample by sample
    assert [s.parameters for s in calibration.samples] \
        == [s.parameters for s in direct.samples]
    assert [s.score for s in calibration.samples] \
        == [s.score for s in direct.samples]
    assert glue.lower.values == direct_glue.lower.values
    assert glue.median.values == direct_glue.median.values
    assert glue.upper.values == direct_glue.upper.values
    # ...and the GLUE re-runs were all served from the calibration's cache
    assert runner.cache.hits >= len(calibration.behavioural)

    return {
        "best_nse": calibration.best.score,
        "best_m": calibration.best.parameters["m"],
        "behavioural": len(calibration.behavioural),
        "acceptance": calibration.acceptance_rate(),
        "coverage": glue.coverage(observed),
        "sharpness": glue.sharpness(),
        "direct_evaluations": direct_evaluations[0],
        "cache": runner.stats(),
    }


def test_calibration_adequate_on_every_catchment(benchmark):
    # the sampler is derived from the name alone, never from the process
    assert calibration_rng("morland").random() == 0.3213454601110872
    results = once(benchmark, lambda: {
        name: calibrate_catchment(name) for name in CATCHMENTS})

    print_table(
        f"Offline Monte Carlo calibration - {ITERATIONS} samples per "
        "catchment vs synthetic truth (m=18, td=0.8)",
        ["catchment", "best NSE", "best m", "behavioural sets",
         "acceptance", "GLUE 5-95% coverage", "band width mm/h"],
        [[name, r["best_nse"], r["best_m"], r["behavioural"],
          f"{r['acceptance']:.0%}", f"{r['coverage']:.0%}", r["sharpness"]]
         for name, r in results.items()])
    print_table(
        "Shared-cache fast path vs direct path (calibration + GLUE)",
        ["catchment", "direct evaluations", "runner evaluations",
         "cache hits", "cache misses"],
        [[name, r["direct_evaluations"], r["cache"]["runs{backend=scalar}"],
          r["cache"]["hits"], r["cache"]["misses"]]
         for name, r in results.items()])

    for name, r in results.items():
        # 'adequately reproduce observed discharge': strong NSE everywhere
        assert r["best_nse"] > 0.85, name
        # the calibration found the truth's neighbourhood
        assert 5.0 <= r["best_m"] <= 45.0, name
        # a usable behavioural population for uncertainty analysis
        assert r["behavioural"] >= 5, name
        # the GLUE bounds actually bracket the observations
        assert r["coverage"] > 0.7, name
        # the cache did real work: every behavioural re-run was a hit and
        # the calibration itself never computed a parameter set twice
        assert r["cache"]["hits"] >= r["behavioural"], name
        assert r["cache"]["misses"] <= ITERATIONS, name
        # what the shared cache buys: the direct path ran the model for
        # every sample and again for every behavioural set
        assert r["direct_evaluations"] == ITERATIONS + r["behavioural"], name
        assert r["cache"]["runs{backend=scalar}"] <= ITERATIONS, name
