"""UNC — IaaS elasticity for uncertainty analysis (Section VI).

"Consider for instance uncertainty analysis where a model is repeatedly
executed using ranges of values for input parameters ... This requires
substantially more computational resources than a single execution.  By
providing such resources on demand, IaaS presents such a great advantage
when compared to both grid and cluster computing where usage quotas are
a common hindrance."

The experiment schedules a 200-run GLUE sweep (embarrassingly parallel
TOPMODEL executions, ~40 CPU-s each) as cloud jobs and measures makespan
under (a) a quota-bound grid allocation of fixed worker counts and (b)
elastic on-demand workers.  Expected shape: the quota-bound makespan
plateaus at quota size while the elastic makespan keeps falling ~M/W
until boot overhead dominates.
"""

from benchmarks.harness import once, print_table
from repro.cloud import (
    AwsCloud,
    ImageKind,
    ImageStore,
    Job,
    MultiCloud,
    OpenStackCloud,
)
from repro.cloud.flavors import Flavor
from repro.perf import RunCache, run_key
from repro.sim import RandomStreams, Simulator

SWEEP_RUNS = 200
RUN_COST = 40.0          # CPU-seconds per model execution
WORKER = Flavor("worker", vcpus=1, ram_mb=2048, disk_gb=20)


def _draw_key(run_id: int) -> str:
    return run_key("glue", {"draw": run_id}, "storm-forcing")


def run_sweep(workers: int, elastic: bool, cache: RunCache = None):
    sim = Simulator()
    streams = RandomStreams(3)
    images = ImageStore()
    image = images.create("sweep-worker", ImageKind.STREAMLINED,
                          size_gb=3.0, run_speed_factor=1.25)
    if elastic:
        cloud = AwsCloud(sim, streams=streams)
    else:
        # the grid quota: only `workers` single-core slots, ever
        cloud = OpenStackCloud(sim, total_vcpus=workers, streams=streams)
    multi = MultiCloud()
    multi.register_compute("cloud", cloud)

    instances = [cloud.launch(image, WORKER) for _ in range(workers)]
    completions = []
    cached_runs = []

    def dispatcher():
        pending = list(range(SWEEP_RUNS))
        ready = []
        for inst in instances:
            booted = yield inst.ready
            if booted is not None:
                ready.append(inst)
        signals = []
        dispatched = 0
        for run_id in pending:
            # a warm run cache answers instead of the cloud: cached runs
            # cost no job dispatch and no CPU-seconds at all
            if cache is not None:
                found, _value = cache.lookup(_draw_key(run_id))
                if found:
                    cached_runs.append(run_id)
                    continue
            worker = ready[dispatched % len(ready)]
            dispatched += 1
            signals.append(worker.submit(Job(cost=RUN_COST,
                                             name=f"glue-{run_id}")))
        combined = sim.all_of(signals)
        outcomes = yield combined
        completions.extend(outcomes)

    sim.run_process(dispatcher(), name="dispatcher")
    return {"makespan": sim.now,
            "completed": (sum(1 for o in completions if o.succeeded)
                          + len(cached_runs)),
            "cached": len(cached_runs)}


def test_uncertainty_elasticity(benchmark):
    worker_counts = (4, 8, 16, 32, 64)
    quota = 8

    def run_all():
        elastic = {w: run_sweep(w, elastic=True) for w in worker_counts}
        # the grid: asking for more workers than the quota is refused, so
        # the effective worker count saturates at the quota
        quota_bound = {w: run_sweep(min(w, quota), elastic=False)
                       for w in worker_counts}
        # the re-analysis pattern: the whole sweep already sits in the
        # content-addressed run cache, so no jobs are dispatched and the
        # makespan collapses to boot time
        warm = RunCache(max_entries=SWEEP_RUNS)
        for run_id in range(SWEEP_RUNS):
            warm.store(_draw_key(run_id), run_id)
        rerun = run_sweep(8, elastic=True, cache=warm)
        return elastic, quota_bound, rerun

    elastic, quota_bound, rerun = once(benchmark, run_all)

    rows = []
    for w in worker_counts:
        rows.append([w, elastic[w]["makespan"],
                     quota_bound[w]["makespan"],
                     quota_bound[w]["makespan"] / elastic[w]["makespan"]])
    print_table(
        f"GLUE sweep of {SWEEP_RUNS} runs x {RUN_COST:.0f} CPU-s - "
        f"elastic IaaS vs grid quota of {quota} slots",
        ["workers requested", "elastic makespan s", "quota makespan s",
         "speedup of elastic"],
        rows)
    print_table(
        "Warm run-cache re-sweep (8 elastic workers)",
        ["scenario", "makespan s", "runs dispatched", "runs from cache"],
        [["cold sweep", elastic[8]["makespan"], SWEEP_RUNS, 0],
         ["warm re-sweep", rerun["makespan"],
          SWEEP_RUNS - rerun["cached"], rerun["cached"]]])

    # everyone finishes the science eventually
    assert all(r["completed"] == SWEEP_RUNS for r in elastic.values())
    assert all(r["completed"] == SWEEP_RUNS for r in quota_bound.values())
    # elastic makespan keeps falling with more workers...
    spans = [elastic[w]["makespan"] for w in worker_counts]
    assert all(a > b for a, b in zip(spans, spans[1:]))
    assert elastic[64]["makespan"] < elastic[4]["makespan"] / 6
    # ...while the quota-bound makespan plateaus at the quota
    assert abs(quota_bound[16]["makespan"]
               - quota_bound[64]["makespan"]) < 1e-6
    # at 64 requested workers the elastic cloud is several times faster
    # (boot overhead keeps it from the ideal 8x)
    assert quota_bound[64]["makespan"] > 3 * elastic[64]["makespan"]
    # a fully warm cache answers the whole sweep without dispatching a
    # single job: the makespan collapses to boot time
    assert rerun["cached"] == SWEEP_RUNS
    assert rerun["completed"] == SWEEP_RUNS
    assert rerun["makespan"] < elastic[8]["makespan"] / 5
