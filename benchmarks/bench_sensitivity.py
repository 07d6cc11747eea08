"""SENS (ablation) — what the expert sliders actually control.

Section V-B: experts "explore model parameter sensitivity through HTML
sliders", and Section VI promises "more fine-tuned model calibration for
domain experts".  This ablation quantifies both: a one-at-a-time sweep
ranks the sliders by how much of the flood-peak response they control,
and regional sensitivity analysis (the GLUE companion) shows which
parameters the observations can actually identify — the evidence behind
choosing ``m``, ``srmax``, ``td`` and ``q0`` as the widget's sliders.
"""

import random

from benchmarks.harness import once, print_table
from repro.data import DesignStorm, STUDY_CATCHMENTS
from repro.hydrology import (
    MonteCarloCalibrator,
    TopmodelParameters,
    one_at_a_time,
    rank_oat,
    regional_sensitivity,
)
from repro.perf import EnsembleRunner, RunCache
from repro.sim import RandomStreams

RANGES = {
    "m": (5.0, 60.0),
    "srmax": (5.0, 80.0),
    "td": (0.1, 5.0),
    "q0_mm_h": (0.02, 1.0),
}
REFERENCE = {"m": 15.0, "srmax": 25.0, "td": 0.5, "q0_mm_h": 0.3}


def build_metric():
    morland = STUDY_CATCHMENTS["morland"]
    model = morland.topmodel()
    rain = morland.weather_generator(RandomStreams(41)).rainfall_with_storm(
        120, DesignStorm(36, 8, 60.0), start_day_of_year=330)

    def peak_of(params):
        p = TopmodelParameters().with_updates(**params)
        return model.run(rain, parameters=p).flow.maximum()

    return peak_of, model, rain


def test_oat_slider_ranking(benchmark):
    def run():
        metric, _model, _rain = build_metric()
        direct_evaluations = [0]

        def counted(params):
            direct_evaluations[0] += 1
            return metric(params)

        direct = one_at_a_time(counted, RANGES, REFERENCE, points=7)
        # the slider access pattern: the same exploration re-requested —
        # through the shared runner the second sweep is all cache hits
        runner = EnsembleRunner(metric, model_id="topmodel:morland:peak",
                                cache=RunCache(max_entries=256))
        first = one_at_a_time(metric, RANGES, REFERENCE, points=7,
                              runner=runner)
        first_evaluations = runner.stats()["runs{backend=scalar}"]
        repeat = one_at_a_time(metric, RANGES, REFERENCE, points=7,
                               runner=runner)
        repeat_evaluations = (runner.stats()["runs{backend=scalar}"]
                              - first_evaluations)
        return (direct, first, repeat, runner, direct_evaluations[0],
                first_evaluations, repeat_evaluations)

    (curves, first, repeat, runner, direct_evaluations,
     first_evaluations, repeat_evaluations) = once(benchmark, run)
    ranking = rank_oat(curves)
    print_table(
        "One-at-a-time sensitivity of the flood peak to the widget sliders",
        ["slider", "normalised sensitivity", "peak range mm/h"],
        [[name, sensitivity, curves[name].metric_range()]
         for name, sensitivity in ranking])
    print_table(
        "Repeated slider exploration through the run cache",
        ["sweep", "model evaluations"],
        [["direct", direct_evaluations],
         ["first through the runner", first_evaluations],
         ["cached repeat", repeat_evaluations]])

    names = [name for name, _s in ranking]
    # every slider does something; m dominates (it sets flashiness)
    assert names[0] == "m"
    assert all(s > 0 for _n, s in ranking)
    # the top slider controls at least double the response of the last
    assert ranking[0][1] > 2 * ranking[-1][1]
    # the runner path reproduces the direct sweep point for point, and
    # the repeated exploration re-ran nothing (7 points x 4 sliders)
    for name in curves:
        assert first[name].points == curves[name].points
        assert repeat[name].points == curves[name].points
    assert runner.cache.hits >= 28
    assert runner.cache.misses <= 28
    assert direct_evaluations == first_evaluations == 28
    assert repeat_evaluations == 0


def test_regional_sensitivity_identifiability(benchmark):
    def run():
        metric, model, rain = build_metric()
        truth = TopmodelParameters(m=18.0, td=0.8, q0_mm_h=0.35)
        observed = model.run(rain, parameters=truth).flow.values

        def simulate(params):
            p = TopmodelParameters().with_updates(**params)
            return model.run(rain, parameters=p).flow.values

        # RSA samples through the shared runner too: a later GLUE pass on
        # the same cache would re-run none of these 250 evaluations
        runner = EnsembleRunner(simulate, model_id="topmodel:morland",
                                cache=RunCache(max_entries=512))
        calibrator = MonteCarloCalibrator(
            ranges=RANGES, runner=runner, rng=random.Random(8))
        calibration = calibrator.calibrate(observed, iterations=250,
                                           behavioural_threshold=0.6)
        assert runner.cache.misses <= 250
        return regional_sensitivity(calibration), calibration

    results, calibration = once(benchmark, run)
    print_table(
        f"Regional sensitivity analysis - "
        f"{len(calibration.behavioural)} behavioural of "
        f"{len(calibration.samples)} samples",
        ["parameter", "KS distance", "identifiable?"],
        [[name, r.ks_distance, "yes" if r.identifiable else "no"]
         for name, r in sorted(results.items(),
                               key=lambda kv: -kv[1].ks_distance)])

    # the data constrain the dominant dynamics parameter...
    assert results["m"].identifiable
    # ...and m separates behavioural from non-behavioural most strongly
    strongest = max(results.values(), key=lambda r: r.ks_distance)
    assert strongest.parameter in ("m", "q0_mm_h")
