"""FASTPATH — the model-run fast path pays for itself (and nothing drifts).

The hot loop of :mod:`repro.hydrology.topmodel` was restructured for
CPython speed (per-parameter-set constants hoisted, prepared forcing,
no per-step allocations) and every ensemble workload now funnels through
:class:`~repro.perf.runner.EnsembleRunner` backed by a content-addressed
:class:`~repro.perf.runcache.RunCache`.  This bench holds those claims to
account against the *pre-optimisation* step loop, kept here verbatim as
the reference baseline:

* the new loop is bit-for-bit identical to the seed loop on a 200-sample
  GLUE-style ensemble — every series, every sample;
* the cold batched path is >= 1.5x faster than the seed serial path from
  the hot-loop work alone;
* the warm cached path (the GLUE-after-calibration pattern) is >= 5x
  faster than the seed serial path;
* (with NumPy) the structure-of-arrays vectorized kernel is >= 10x
  faster than the cold batched path while agreeing with the scalar
  oracle within the documented bound (``VECTOR_REL_BOUND``) — the
  comparison table prints all four arms.

Every host figure is the median of five interleaved readings off
:func:`benchmarks.harness.stopwatch`, and every speedup the median of
the five reading-by-reading ratios: best-of-2 with the arms run one
after the other failed the 1.5x floor on 4 of 27 fresh-process runs of a
ratio whose median is ~1.8.
``python -m benchmarks model_fastpath`` rewrites
``BENCH_model_fastpath.json``; under pytest the same ``run`` / ``check``
gate, write nothing, and hold the file's exact half equal to this run's.
"""

import math
import random
from typing import List, Optional

from benchmarks.harness import (
    assert_committed,
    once,
    print_table,
    ratio,
    stopwatch,
)
from repro.data import DesignStorm, STUDY_CATCHMENTS
from repro.hydrology import TopmodelParameters
from repro.hydrology.timeseries import TimeSeries
from repro.hydrology.topmodel import Topmodel, TopmodelResult
from repro.hydrology.vectorized import (
    HAVE_NUMPY,
    VECTOR_ABS_BOUND,
    VECTOR_REL_BOUND,
    TopmodelEnsemble,
)
from repro.perf import EnsembleRunner, RunCache, forcing_digest
from repro.sim import RandomStreams

SAMPLES = 200            # the Section VI GLUE ensemble size
FORCING_HOURS = 24 * 12
RANGES = {"m": (5.0, 60.0), "td": (0.1, 5.0), "q0_mm_h": (0.02, 1.0)}


def seed_run(model: Topmodel, rainfall: TimeSeries,
             pet: Optional[TimeSeries],
             parameters: TopmodelParameters) -> TopmodelResult:
    """The pre-optimisation step loop, verbatim — the reference baseline.

    Kept as the measuring stick so the speedup numbers compare against
    the code this PR replaced, not against a strawman; the bit-identity
    assertions compare against it too.
    """
    params = parameters.validated()
    if pet is not None and len(pet) != len(rainfall):
        raise ValueError("PET series must match rainfall length")
    dt = model.dt_hours
    n = len(rainfall)

    szq = 1000.0 * math.exp(params.t0 - model.lam) * dt  # mm/step
    target_baseflow = params.q0_mm_h * dt
    if szq > target_baseflow:
        mean_deficit = params.m * math.log(szq / target_baseflow)
    else:
        mean_deficit = 1.0
    initial_deficit = mean_deficit
    root_deficit = params.sr0 * params.srmax
    initial_root_store = params.srmax - root_deficit
    suz = [0.0 for _ in model.ti]

    total_in = 0.0
    total_out = 0.0
    flow_raw: List[float] = []
    base_out: List[float] = []
    over_out: List[float] = []
    satfrac_out: List[float] = []
    aet_out: List[float] = []

    for step in range(n):
        rain = rainfall[step]
        rain = 0.0 if math.isnan(rain) else max(0.0, rain)
        pet_step = 0.0 if pet is None else max(0.0, pet[step])
        total_in += rain

        intercepted = min(rain, params.interception_mm) if rain > 0 else 0.0
        rain_ground = rain - intercepted
        total_out += intercepted

        capacity = params.infiltration_capacity_mm_h * dt
        infiltration_excess = max(0.0, rain_ground - capacity)
        infiltrating = rain_ground - infiltration_excess

        to_root = min(infiltrating, root_deficit)
        root_deficit -= to_root
        drainage = infiltrating - to_root

        aet = pet_step * max(0.0, 1.0 - root_deficit / params.srmax)
        aet = min(aet, params.srmax - root_deficit)
        root_deficit = min(params.srmax, root_deficit + aet)
        total_out += aet

        overland = infiltration_excess
        recharge = 0.0
        return_flow = 0.0
        saturated_area = 0.0

        for k, (ti_value, fraction) in enumerate(model.ti):
            local_deficit = mean_deficit + params.m * (model.lam - ti_value)
            if local_deficit <= 0.0:
                saturated_area += fraction
                overland += fraction * (drainage + suz[k])
                return_flow += fraction * (-local_deficit)
                suz[k] = 0.0
            else:
                suz[k] += drainage
                flux = min(suz[k],
                           suz[k] / (local_deficit * params.td) * dt)
                suz[k] -= flux
                recharge += fraction * flux

        overland += return_flow
        baseflow = szq * math.exp(-mean_deficit / params.m)
        new_deficit = mean_deficit + baseflow + return_flow - recharge
        if new_deficit < 0.0:
            overland += -new_deficit
            new_deficit = 0.0
        mean_deficit = new_deficit

        flow_raw.append(baseflow + overland)
        base_out.append(baseflow)
        over_out.append(overland)
        satfrac_out.append(saturated_area)
        aet_out.append(aet)
        total_out += baseflow + overland

    routed = model._route(flow_raw, params)
    start, series_dt = rainfall.start, rainfall.dt
    suz_store = sum(frac * suz[k] for k, (_ti, frac) in enumerate(model.ti))
    root_store = params.srmax - root_deficit
    storage_change = (suz_store
                      + (root_store - initial_root_store)
                      - (mean_deficit - initial_deficit))
    balance_error = total_in - total_out - storage_change

    def ts(values, name):
        return TimeSeries(start, series_dt, values, units="mm/step",
                          name=name)

    return TopmodelResult(
        flow=ts(routed, "flow"),
        baseflow=ts(base_out, "baseflow"),
        overland=ts(over_out, "overland"),
        saturated_fraction=TimeSeries(start, series_dt, satfrac_out,
                                      units="fraction",
                                      name="saturated_fraction"),
        actual_et=ts(aet_out, "actual_et"),
        final_deficit_mm=mean_deficit,
        water_balance_error_mm=balance_error,
    )


def build_workload(samples: int, hours: int):
    morland = STUDY_CATCHMENTS["morland"]
    model = morland.topmodel()
    rain = morland.weather_generator(RandomStreams(29)).rainfall_with_storm(
        hours, DesignStorm(min(72, hours // 2), 10, 65.0),
        start_day_of_year=330)
    rng = random.Random(1234)
    draws = [{name: rng.uniform(lo, hi) for name, (lo, hi) in RANGES.items()}
             for _ in range(samples)]
    return model, rain, draws


def identical(a: TopmodelResult, b: TopmodelResult) -> bool:
    return (a.flow.values == b.flow.values
            and a.baseflow.values == b.baseflow.values
            and a.overland.values == b.overland.values
            and a.saturated_fraction.values == b.saturated_fraction.values
            and a.actual_et.values == b.actual_et.values
            and a.final_deficit_mm == b.final_deficit_mm
            and a.water_balance_error_mm == b.water_balance_error_mm)


def agreement(a: TopmodelResult, b: TopmodelResult) -> float:
    """Worst relative disagreement between two results' flow series,
    ignoring values inside the absolute floor (``VECTOR_ABS_BOUND``)."""
    worst = 0.0
    for x, y in zip(a.flow.values, b.flow.values):
        if abs(x - y) > VECTOR_ABS_BOUND:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def run() -> dict:
    model, rain, draws = build_workload(SAMPLES, FORCING_HOURS)
    params = [TopmodelParameters().with_updates(**d) for d in draws]

    # the GLUE-after-calibration pattern: the ensemble is re-requested
    # with the runs already in the shared cache
    forcing = model.prepare(rain)

    def simulate(p):
        return model.run_prepared(
            forcing, TopmodelParameters().with_updates(**p))

    runner = EnsembleRunner(simulate, model_id="topmodel:morland",
                            forcing=forcing_digest(rain),
                            cache=RunCache(max_entries=4 * SAMPLES))
    runner.run_many(draws)                       # populate

    arms = {"seed": lambda: [seed_run(model, rain, None, p) for p in params],
            "cold": lambda: model.run_batch(rain, params),
            "warm": lambda: runner.run_many(draws)}          # all hits
    # the SoA vectorized kernel — measured against the *cold batched*
    # path, which is what it replaces for a never-seen ensemble
    if HAVE_NUMPY:
        ensemble = TopmodelEnsemble.prepare(model, rain)
        arms["vector"] = lambda: ensemble.batch(draws)
    seconds, results = stopwatch(arms)

    worst_rel_err = None
    if HAVE_NUMPY:
        worst_rel_err = max(
            agreement(a, b)
            for a, b in zip(results["cold"], results["vector"]))

    host = {f"{arm}_seconds": figure for arm, figure in seconds.items()}
    host["cold_speedup"] = ratio(seconds["seed"], seconds["cold"])
    host["warm_speedup"] = ratio(seconds["seed"], seconds["warm"])
    if HAVE_NUMPY:
        host["vector_speedup_vs_cold"] = ratio(seconds["cold"],
                                               seconds["vector"])
    exact = {
        "samples": SAMPLES,
        "steps": len(rain),
        "ti_classes": len(model.ti),
        # every warm reading, every sample
        "cache_hits": runner.cache.hits,
        "bit_identical": all(
            identical(a, b) and identical(b, c)
            for a, b, c in zip(results["seed"], results["cold"],
                               results["warm"])),
        "numpy": HAVE_NUMPY,
        "vector_worst_rel_err": worst_rel_err,
        "vector_rel_bound": VECTOR_REL_BOUND,
    }

    rows = []
    for label, arm in (("seed serial", "seed"), ("cold batched", "cold"),
                       ("cold vectorized", "vector"),
                       ("warm cached", "warm")):
        if arm in seconds:
            took = seconds[arm]
            rows.append([label, took["median"], took["q1"], took["q3"],
                         took["clock"],
                         f"{seconds['seed']['median'] / took['median']:.2f}x",
                         SAMPLES / took["median"]])
    print_table(
        f"TOPMODEL fast path - {SAMPLES}-sample GLUE ensemble, "
        f"{len(rain)} steps x {len(model.ti)} TI classes "
        f"(median of {seconds['seed']['repeats']} interleaved readings)",
        ["path", "seconds", "q1", "q3", "clock", "speedup vs seed",
         "runs/s"], rows)
    print_table(
        "gated speedups (median of the reading-by-reading ratios)",
        ["figure", "median", "q1", "q3", "floor"],
        [[figure, host[figure]["median"], host[figure]["q1"],
          host[figure]["q3"], floor]
         for figure, floor, _meaning in FLOORS if figure in host])
    if HAVE_NUMPY:
        print(f"vectorized kernel: worst flow rel err {worst_rel_err:.3e} "
              f"(bound {VECTOR_REL_BOUND:.0e})")
    else:
        print("numpy absent: vectorized arms skipped "
              "(scalar fallback active)")
    return {"exact": exact, "host": host}


#: (figure, floor, what falling under it means) — the strictest floor
#: either entry point held each claim to
FLOORS = (
    # hot-loop work alone carries the cold path
    ("cold_speedup", 1.5, "cold batched path vs the seed loop"),
    # the cached ensemble re-run is where the order of magnitude lives
    ("warm_speedup", 5.0, "cached path vs the seed loop (cache not "
                          "faster than recompute)"),
    ("vector_speedup_vs_cold", 10.0, "vectorized kernel vs cold batched"),
)


def check(result: dict) -> list:
    exact, host = result["exact"], result["host"]
    failures = []
    # the optimisation changed not one bit of the science
    if not exact["bit_identical"]:
        failures.append("fast path is not bit-identical to the seed loop")
    for figure, floor, meaning in FLOORS:
        if figure in host and host[figure]["median"] < floor:
            failures.append(
                f"{meaning}: {host[figure]['median']:.2f}x "
                f"[{host[figure]['q1']:.2f}, {host[figure]['q3']:.2f}], "
                f"below {floor}x")
    if exact["cache_hits"] != \
            exact["samples"] * host["warm_seconds"]["repeats"]:
        failures.append(f"a warm reading missed the cache: "
                        f"{exact['cache_hits']} hits")
    if exact["numpy"]:
        if exact["vector_worst_rel_err"] > exact["vector_rel_bound"]:
            failures.append(
                f"vector/scalar disagreement "
                f"{exact['vector_worst_rel_err']:.3e} exceeds bound "
                f"{exact['vector_rel_bound']:.0e}")
    return failures


def test_model_fastpath(benchmark):
    result = once(benchmark, run)
    failures = check(result)
    assert not failures, "; ".join(failures)
    if HAVE_NUMPY:      # the committed file records the vector arms
        assert_committed("model_fastpath", result["exact"])
