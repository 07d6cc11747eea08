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
  oracle within the documented bound (``VECTOR_REL_BOUND``), and the
  process-pool backend returns bit-identical results to the vector
  backend — the backend-comparison table prints all four arms.

Run as a script (``python benchmarks/bench_model_fastpath.py``, CI smoke
adds ``--quick``) and the results land in ``BENCH_model_fastpath.json``
at the repo root; under pytest, like every other bench, it gates the
same numbers and writes nothing.
"""

import argparse
import gc
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):       # script mode: python benchmarks/bench_...
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.harness import once, print_table
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
RESULT_FILE = REPO_ROOT / "BENCH_model_fastpath.json"
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


def timed(fn, repeats: int = 2, clock=time.process_time):
    """(best seconds, last result) — best-of-N with the collector
    quiesced, so a run inside the full suite (big heap, pending garbage)
    measures the loops and not the interpreter's housekeeping.  The
    default clock is this process's CPU time (the e2e harness's host
    clock): a busy box stretches the wall time of the two arms of a
    ratio unevenly.  Only the arm whose work leaves the process (the
    pool) is timed on the wall."""
    best = float("inf")
    result = None
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = clock()
            result = fn()
            best = min(best, clock() - started)
    finally:
        if enabled:
            gc.enable()
    return best, result


def agreement(a: TopmodelResult, b: TopmodelResult) -> float:
    """Worst relative disagreement between two results' flow series,
    ignoring values inside the absolute floor (``VECTOR_ABS_BOUND``)."""
    worst = 0.0
    for x, y in zip(a.flow.values, b.flow.values):
        if abs(x - y) > VECTOR_ABS_BOUND:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def run_fastpath(samples: int = SAMPLES, hours: int = FORCING_HOURS) -> dict:
    model, rain, draws = build_workload(samples, hours)
    params = [TopmodelParameters().with_updates(**d) for d in draws]

    seed_seconds, seed_results = timed(
        lambda: [seed_run(model, rain, None, p) for p in params])
    cold_seconds, batch_results = timed(
        lambda: model.run_batch(rain, params))

    bit_identical = all(identical(a, b)
                        for a, b in zip(seed_results, batch_results))

    # the SoA vectorized kernel and its chunked process-pool twin —
    # measured against the *cold batched* path, which is what they
    # replace for a never-seen ensemble
    vector_seconds = None
    vector_speedup = None
    pool_seconds = None
    worst_rel_err = None
    vector_pool_identical = None
    if HAVE_NUMPY:
        ensemble = TopmodelEnsemble.prepare(model, rain)
        vector_seconds, vector_results = timed(
            lambda: ensemble.batch(draws), repeats=3)
        vector_speedup = cold_seconds / max(vector_seconds, 1e-9)
        worst_rel_err = max(agreement(a, b)
                            for a, b in zip(batch_results, vector_results))
        pool_runner = EnsembleRunner(
            ensemble, model_id="topmodel:morland",
            forcing=forcing_digest(rain), backend="process-pool",
            batch=ensemble.batch, workers=2,
            chunk_size=max(1, samples // 2))
        pool_seconds, pool_results = timed(
            lambda: pool_runner.run_many(draws), clock=time.perf_counter)
        vector_pool_identical = all(
            identical(a, b)
            for a, b in zip(vector_results, pool_results))

    # the GLUE-after-calibration pattern: the ensemble is re-requested
    # with the runs already in the shared cache
    forcing = model.prepare(rain)

    def simulate(p):
        return model.run_prepared(
            forcing, TopmodelParameters().with_updates(**p))

    runner = EnsembleRunner(simulate, model_id="topmodel:morland",
                            forcing=forcing_digest(rain),
                            cache=RunCache(max_entries=4 * samples))
    runner.run_many(draws)                       # populate
    warm_seconds, warm_results = timed(
        lambda: runner.run_many(draws))          # all hits
    warm_hits = runner.cache.hits

    bit_identical = bit_identical and all(
        identical(a, b) for a, b in zip(batch_results, warm_results))

    return {
        "samples": samples,
        "steps": len(rain),
        "ti_classes": len(model.ti),
        "seed_seconds": seed_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_speedup": seed_seconds / max(cold_seconds, 1e-9),
        "warm_speedup": seed_seconds / max(warm_seconds, 1e-9),
        "cache_hits": warm_hits,
        "bit_identical": bit_identical,
        "numpy": HAVE_NUMPY,
        "vector_seconds": vector_seconds,
        "vector_speedup_vs_cold": vector_speedup,
        "pool_seconds": pool_seconds,
        "vector_worst_rel_err": worst_rel_err,
        "vector_rel_bound": VECTOR_REL_BOUND,
        "vector_pool_bit_identical": vector_pool_identical,
    }


def report(result: dict) -> None:
    seed = result["seed_seconds"]
    rows = [["seed serial", seed, "1.00x",
             result["samples"] / max(seed, 1e-9)],
            ["cold batched", result["cold_seconds"],
             f"{result['cold_speedup']:.2f}x",
             result["samples"] / max(result["cold_seconds"], 1e-9)]]
    if result["numpy"]:
        rows.append(["cold vectorized", result["vector_seconds"],
                     f"{seed / max(result['vector_seconds'], 1e-9):.2f}x",
                     result["samples"] / max(result["vector_seconds"],
                                             1e-9)])
        rows.append(["cold process-pool", result["pool_seconds"],
                     f"{seed / max(result['pool_seconds'], 1e-9):.2f}x",
                     result["samples"] / max(result["pool_seconds"], 1e-9)])
    rows.append(["warm cached", result["warm_seconds"],
                 f"{result['warm_speedup']:.2f}x",
                 result["samples"] / max(result["warm_seconds"], 1e-9)])
    print_table(
        f"TOPMODEL fast path - {result['samples']}-sample GLUE ensemble, "
        f"{result['steps']} steps x {result['ti_classes']} TI classes",
        ["path", "seconds", "speedup vs seed", "runs/s"],
        rows)
    if result["numpy"]:
        print(f"vectorized kernel: {result['vector_speedup_vs_cold']:.2f}x "
              f"vs cold batched; worst flow rel err "
              f"{result['vector_worst_rel_err']:.3e} "
              f"(bound {result['vector_rel_bound']:.0e}); "
              f"vector == process-pool bit-identical: "
              f"{result['vector_pool_bit_identical']}")
    else:
        print("numpy absent: vectorized arms skipped "
              "(scalar fallback active)")


def test_model_fastpath(benchmark):
    result = once(benchmark, run_fastpath)
    report(result)

    # the optimisation changed not one bit of the science
    assert result["bit_identical"]
    # hot-loop work alone carries the cold path
    assert result["cold_speedup"] >= 1.5
    # the cached ensemble re-run is where the order of magnitude lives
    assert result["warm_speedup"] >= 5.0
    assert result["cache_hits"] >= result["samples"]
    if result["numpy"]:
        # softer floor than the script's 10x: pytest shares the box with
        # the whole suite, so leave room for scheduler noise
        assert result["vector_speedup_vs_cold"] >= 5.0
        assert result["vector_worst_rel_err"] <= result["vector_rel_bound"]
        assert result["vector_pool_bit_identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: relaxed cold-path threshold "
                             "(the full ensemble runs in seconds; the "
                             "vectorized 10x floor needs its size to "
                             "amortize per-set setup)")
    args = parser.parse_args(argv)

    if args.quick:
        result = run_fastpath()
        cold_floor = 1.1       # keep CI timing-noise safe
    else:
        result = run_fastpath()
        cold_floor = 1.5
    report(result)
    RESULT_FILE.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {RESULT_FILE}")

    failures = []
    if not result["bit_identical"]:
        failures.append("fast path is not bit-identical to the seed loop")
    if result["cold_speedup"] < cold_floor:
        failures.append(f"cold speedup {result['cold_speedup']:.2f}x "
                        f"below {cold_floor}x")
    if result["warm_speedup"] < 5.0:
        failures.append(f"cached path speedup {result['warm_speedup']:.2f}x "
                        f"below 5x (cache not faster than recompute)")
    if result["numpy"]:
        if result["vector_speedup_vs_cold"] < 10.0:
            failures.append(
                f"vectorized kernel {result['vector_speedup_vs_cold']:.2f}x "
                f"vs cold batched, below 10x")
        if result["vector_worst_rel_err"] > result["vector_rel_bound"]:
            failures.append(
                f"vector/scalar disagreement "
                f"{result['vector_worst_rel_err']:.3e} exceeds bound "
                f"{result['vector_rel_bound']:.0e}")
        if not result["vector_pool_bit_identical"]:
            failures.append(
                "process-pool results are not bit-identical to vector")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
