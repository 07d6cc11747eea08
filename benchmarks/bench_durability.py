"""DURABLE — chaos soak: crash-riddled ensembles finish correctly.

The portal's longest unit of work is a calibration/GLUE ensemble of
hundreds of model evaluations.  This bench kills the executor at
randomized points (deterministic RNG stream) during a 500-run sweep and
proves the durable-execution claims:

1. **bit-identical results** — the crash-riddled sweep returns exactly
   the results of a fault-free run;
2. **bounded waste** — recompute after each crash is at most one
   checkpoint interval;
3. **exactly-once effects** — every evaluation publishes its result
   exactly once across all attempts (at-least-once replay, existence-
   checked puts keyed by the content-addressed run key).

The baseline arm runs the same crash schedule with **no journal**: each
crash loses all progress and the whole batch restarts from scratch,
which is what the portal did before this subsystem.

Everything is journaled and traced — the report includes the
``durable.sweep`` spans and ``durable.*`` event counters.
"""

from benchmarks.harness import once, print_table, trace_summary
from repro.cloud import BlobStore
from repro.durable import DurableSweep, JournalStore, replay
from repro.obs.hub import obs_of
from repro.perf.runcache import RunCache
from repro.perf.runner import EnsembleRunner
from repro.sim import RandomStreams, Simulator

LEASE_TTL = 120.0


def make_runner(calls):
    """A fresh executor: cold cache, counting every real model evaluation."""
    def simulate(params):
        calls.append(params["m"])
        return {"peak": params["m"] * 1.7 + 0.5,
                "volume": params["m"] * 12.0}

    return EnsembleRunner(simulate, model_id="soak", forcing="storm",
                          cache=RunCache(max_entries=4096))


def parameter_sets(n):
    return [{"m": float(i)} for i in range(n)]


def run_fault_free(n, checkpoint_every):
    """Reference arm: one executor, no faults."""
    sim = Simulator()
    blob = BlobStore(sim, name="soak-ref")
    store = JournalStore(sim, blob)
    effects = blob.create_container("results")
    calls = []
    sweep = DurableSweep(make_runner(calls), store, "soak",
                         checkpoint_every=checkpoint_every, effects=effects,
                         owner="exec-ref", lease_ttl=LEASE_TTL)
    results = sweep.run(parameter_sets(n))
    return {"results": results, "calls": len(calls),
            "effects": len(effects)}


def run_chaos_soak(n, checkpoint_every, crashes, seed=11):
    """Chaos arm: the executor dies ``crashes`` times at random points.

    After each crash the orphaned sweep waits out the dead owner's
    lease (simulated clock) and a fresh executor — new owner, cold
    cache — re-adopts the journal and resumes from the last checkpoint.
    """
    sim = Simulator()
    blob = BlobStore(sim, name="soak-chaos")
    store = JournalStore(sim, blob)
    effects = blob.create_container("results")
    params = parameter_sets(n)
    rng = RandomStreams(seed=seed).get("bench.durability")

    total_calls = 0
    effects_applied = 0
    effects_deduped = 0
    waste_per_crash = []
    attempt = 0
    results = None
    remaining_crashes = crashes
    progress_at_crash = None

    while results is None:
        done_so_far = 0
        if store.exists("soak"):
            state = replay(store.open("soak").records(), run_id="soak")
            if state.checkpoint is not None:
                done_so_far = int(state.checkpoint.get("completed", 0))
        if progress_at_crash is not None:
            # recompute forced by the crash: everything past the last
            # checkpoint the dead executor had reached
            waste_per_crash.append(progress_at_crash - done_so_far)
            progress_at_crash = None

        remaining = n - done_so_far
        interrupt = None
        if remaining_crashes > 0 and remaining > 1:
            interrupt = rng.randrange(1, remaining)
            remaining_crashes -= 1

        calls = []
        sweep = DurableSweep(make_runner(calls), store, "soak",
                             checkpoint_every=checkpoint_every,
                             effects=effects, owner=f"exec-{attempt}",
                             lease_ttl=LEASE_TTL)
        results = sweep.run(params, interrupt_after=interrupt,
                            torn=(attempt % 2 == 1))
        total_calls += len(calls)
        effects_applied += sweep.effects_applied
        effects_deduped += sweep.effects_deduped
        attempt += 1
        if results is None:
            progress_at_crash = done_so_far + sweep.computed
            # the dead owner's lease must lapse before takeover
            sim.run(until=sim.now + LEASE_TTL + 1.0)

    hub = obs_of(sim)
    hub.tracer.finish_open_spans()
    counts = hub.events.counts()
    return {
        "results": results,
        "calls": total_calls,
        "attempts": attempt,
        "waste_per_crash": waste_per_crash,
        "effects": len(effects),
        "effects_applied": effects_applied,
        "effects_deduped": effects_deduped,
        "spans": list(hub.tracer.spans()),
        "events": {k: v for k, v in counts.items()
                   if k.startswith("durable.")},
        "final_state": replay(store.open("soak").records(), run_id="soak"),
    }


def run_no_journal_baseline(n, crashes, seed=11):
    """Baseline arm: same crash schedule, no journal — restart from zero."""
    params = parameter_sets(n)
    rng = RandomStreams(seed=seed).get("bench.durability")
    total_calls = 0
    lost_per_crash = []
    for _ in range(crashes):
        calls = []
        runner = make_runner(calls)
        point = rng.randrange(1, n)
        for p in params[:point]:
            runner.run_one(p, capture_errors=True)
        # crash: nothing was journaled, so every evaluation is lost
        total_calls += len(calls)
        lost_per_crash.append(len(calls))
    calls = []
    results = make_runner(calls).run_many(params)
    total_calls += len(calls)
    return {"results": results, "calls": total_calls,
            "lost_per_crash": lost_per_crash}


def run_soak(n=500, checkpoint_every=25, crashes=6, seed=11):
    """All three arms plus the printed report."""
    reference = run_fault_free(n, checkpoint_every)
    chaos = run_chaos_soak(n, checkpoint_every, crashes, seed=seed)
    baseline = run_no_journal_baseline(n, crashes, seed=seed)

    print_table(
        f"Chaos soak - {n}-run ensemble, {crashes} executor crashes, "
        f"checkpoint every {checkpoint_every}",
        ["arm", "model runs", "waste", "bit-identical", "effects applied"],
        [["fault-free", reference["calls"], 0, "-", reference["effects"]],
         ["durable (journaled)", chaos["calls"], chaos["calls"] - n,
          "yes" if chaos["results"] == reference["results"] else "NO",
          chaos["effects_applied"]],
         ["no journal (baseline)", baseline["calls"],
          baseline["calls"] - n,
          "yes" if baseline["results"] == reference["results"] else "NO",
          "-"]])
    print_table(
        "Wasted recompute per crash (bound: one checkpoint interval)",
        ["crash", "durable arm", "no-journal arm"],
        [[i + 1, w, lost] for i, (w, lost) in
         enumerate(zip(chaos["waste_per_crash"],
                       baseline["lost_per_crash"]))])
    print_table("durable.* event counters (chaos arm)",
                ["event", "count"], sorted(chaos["events"].items()))
    return reference, chaos, baseline


def check_soak(reference, chaos, baseline, n, checkpoint_every, crashes):
    """The three durability properties, as a list of failure strings."""
    failures = []
    if chaos["results"] != reference["results"]:
        failures.append("chaos-arm results are not bit-identical to the "
                        "fault-free run")
    if len(chaos["waste_per_crash"]) != crashes:
        failures.append(f"expected {crashes} crashes, saw "
                        f"{len(chaos['waste_per_crash'])}")
    for i, waste in enumerate(chaos["waste_per_crash"]):
        if waste > checkpoint_every:
            failures.append(f"crash {i + 1} wasted {waste} runs "
                            f"(> checkpoint interval {checkpoint_every})")
    if chaos["effects_applied"] != n or chaos["effects"] != n:
        failures.append(f"effects applied {chaos['effects_applied']}, "
                        f"stored {chaos['effects']}; both must be {n}")
    if chaos["effects_deduped"] != chaos["calls"] - n:
        failures.append("re-executed runs did not all dedup their effects")
    if not chaos["final_state"].terminal:
        failures.append("chaos-arm journal never reached a terminal state")
    if baseline["lost_per_crash"] and \
            not all(lost > 0 for lost in baseline["lost_per_crash"]):
        failures.append("baseline crash schedule lost no work; vacuous")
    if baseline["calls"] <= chaos["calls"]:
        failures.append("no-journal baseline did not cost more recompute "
                        "than the durable arm")
    return failures


def test_chaos_soak_durability_properties(benchmark):
    n, checkpoint_every, crashes = 500, 25, 6
    reference, chaos, baseline = once(
        benchmark, lambda: run_soak(n, checkpoint_every, crashes))

    failures = check_soak(reference, chaos, baseline, n, checkpoint_every,
                          crashes)
    assert not failures, failures

    # the soak is observable: every attempt left a durable.sweep span and
    # the crash/resume story is in the event counters
    summary = trace_summary(chaos["spans"], "Chaos arm - durable spans")
    assert summary.get("durable.sweep", {}).get("count") == \
        chaos["attempts"]
    assert chaos["events"].get("durable.sweep.crashed") == crashes
    assert chaos["events"].get("durable.sweep.checkpoint", 0) >= \
        n // checkpoint_every
    # baseline loses everything it had computed, every time
    assert baseline["lost_per_crash"] == \
        [lost for lost in baseline["lost_per_crash"] if lost > 0]
