"""GEO — whole-region failover with bounded RPO/RTO.

A three-region estate under live polling users and a chaos schedule
that kills the *leader* region outright (storage, control plane and
every instance) and heals it later.  Measured:

- user-visible availability: every poller goes through the
  :class:`~repro.resilience.ResilientClient`; after retries, no user
  ever sees a ``5xx`` final outcome;
- **RPO**: warehouse writes land in the victim region every few
  seconds until the kill; the survivors must hold every write acked
  at least one replication interval before the kill (and the
  youngest surviving write must be within interval + spacing of it);
- **RTO**: detection → sessions resettled in survivors, measured
  end-to-end from the kill and checked against the declared budget;
- **ledger**: the estate's one capacity book, budgeted at each
  region's private pool, re-elects a leader within the election bound,
  admissions in the no-leader window are refused (never guessed), and
  no commit ever lands past a pool (``ledger_overcommits`` is 0);
- **durable re-adoption**: a checkpointed sweep owned by the victim
  region resumes in the adopter from the *replicated* journal,
  recomputing at most the work done after its last shipped
  checkpoint.

Every figure is on the simulated clock or a count, so the artifact has
no host half.  ``python -m benchmarks multi_region`` rewrites
``BENCH_multi_region.json``; under pytest the same ``run`` / ``check``
gate, write nothing, and hold the file's exact half equal to this run's.
"""

from benchmarks.harness import assert_committed, once, print_table
from repro.durable import DurableSweep
from repro.geo import GeoEstate
from repro.hydrology.timeseries import TimeSeries
from repro.obs.hub import obs_of
from repro.obs.refusal import refused
from repro.perf.runner import EnsembleRunner
from repro.resilience import ResilientClient
from repro.services.transport import HttpRequest, HttpResponse

#: Declared end-to-end budget from region kill to every evacuated
#: session active in a survivor, simulated seconds.
RTO_BUDGET = 30.0


# -- three regions, leader killed outright -----------------------------------


def run_region_kill_arm(users_per_region: int = 3,
                        horizon: float = 700.0,
                        kill_at: float = 220.0,
                        outage: float = 200.0,
                        replication_interval: float = 5.0,
                        write_spacing: float = 2.0) -> dict:
    estate = GeoEstate(regions=3, private_vcpus=24,
                       replication_interval=replication_interval,
                       election_ttl=8.0, election_check=1.0,
                       failover_interval=2.0, seed=42)
    estate.warm(until=150.0)
    regions = estate.regions()
    victim = estate.election.leader()
    survivors = [r for r in regions if r != victim]

    # live users in every region, each polling /v1/ping resiliently
    sessions = []
    for region in regions:
        for i in range(users_per_region):
            sessions.append(estate.submit(f"{region}-user-{i}",
                                          origin=region))
    estate.sim.run(until=170.0)
    client = ResilientClient(estate.sim, estate.network, service="portal",
                             streams=estate.streams, hedge=False)
    finals = []

    def poller(session):
        while estate.sim.now < horizon - 30.0:
            done = client.call(lambda: session.instance_address,
                               HttpRequest("GET", "/v1/ping"),
                               deadline=60.0)
            outcome = yield done
            if isinstance(outcome, HttpResponse):
                finals.append((estate.sim.now, session.user_name,
                               outcome.status))
            else:   # timeout/refused after every retry: a user-visible loss
                finals.append((estate.sim.now, session.user_name, 599))
            yield 3.0

    for session in sessions:
        estate.sim.spawn(poller(session), name=f"poll.{session.user_name}")

    # warehouse writes land in the victim until the moment it dies
    acked = []

    def writer():
        k = 0
        while estate.sim.now < kill_at:
            estate.cells[victim].warehouse.put_series(
                f"obs-{k}", TimeSeries(0.0, 1.0, [float(k)]))
            acked.append((f"obs-{k}", estate.sim.now))
            k += 1
            yield write_spacing

    estate.sim.spawn(writer(), name="bench.writer")

    # a checkpointed durable sweep owned by the victim region; its
    # journal (and checkpoint payloads) replicate with everything else
    runner = EnsembleRunner(lambda p: {"peak": p["m"] * 2.0},
                            model_id="geo-bench", forcing="storm")
    sweep_params = [{"m": float(i)} for i in range(40)]
    sweep = DurableSweep(runner, estate.cells[victim].journals, "geo-sweep",
                         checkpoint_every=10, owner=f"exec-{victim}",
                         lease_ttl=30.0)

    def sweep_then_die():
        yield 10.0      # journal writes start after the first sweep tick
        sweep.run(sweep_params, interrupt_after=25)

    estate.sim.spawn(sweep_then_die(), name="bench.sweep")

    # the chaos schedule: kill the leader region, heal it later
    estate.injector.region_outage_at(kill_at - estate.sim.now, victim,
                                     duration=outage)
    estate.sim.run(until=kill_at + 120.0)

    report = estate.failover.reports[-1]
    new_leader = estate.election.leader()
    reelections = [e for e in estate.election.elections if e[0] > kill_at]

    # RPO: youngest write the survivors actually hold
    last_survived = None
    for key, at in acked:
        if all(_readable(estate, s, key) for s in survivors):
            last_survived = (key, at)
    rpo = (kill_at - last_survived[1]) if last_survived else float("inf")

    # durable re-adoption: resume the sweep in the adopter from its
    # replicated journal copy (the victim's store is gone)
    adopter = report.adopter
    resumed = DurableSweep(
        EnsembleRunner(lambda p: {"peak": p["m"] * 2.0},
                       model_id="geo-bench", forcing="storm"),
        estate.cells[adopter].journals, "geo-sweep",
        checkpoint_every=10, owner=f"exec-{adopter}", lease_ttl=30.0)
    sweep_results = resumed.run(sweep_params)

    estate.sim.run(until=horizon)

    losses = [f for f in finals if f[2] >= 500]
    # who said no, why and when: one event kind, whatever the site
    refusals = {}
    for event in obs_of(estate.sim).events.events("refused"):
        key = (event.fields["cause"], round(event.t, 3))
        refusals[key] = refusals.get(key, 0) + 1
    return {
        "arm": "region_kill",
        "regions": regions,
        "victim": victim,
        "kill_at_s": kill_at,
        "outage_s": outage,
        "replication_interval_s": replication_interval,
        "write_spacing_s": write_spacing,
        "polls": len(finals),
        "user_visible_5xx": len(losses),
        "successful_polls": sum(1 for f in finals if f[2] < 500),
        "writes_acked": len(acked),
        "rpo_s": round(rpo, 3),
        "rpo_bound_s": replication_interval + write_spacing,
        # steady-state lag only: post-heal catch-up ships blobs whose
        # age reflects the outage, not the replication cadence
        "max_replication_lag_s": round(
            max((r.lag for r in estate.replicator.shipped
                 if r.time <= kill_at), default=0.0), 3),
        "detection_s": round(report.detected_at - kill_at, 3),
        "rto_s": (round(report.resettled_at - kill_at, 3)
                  if report.resettled_at is not None else None),
        "rto_budget_s": RTO_BUDGET,
        "sessions_detached": report.sessions_detached,
        "sessions_replaced": report.sessions_replaced,
        "reelection_s": (round(reelections[0][0] - kill_at, 3)
                         if reelections else None),
        "reelection_bound_s": round(estate.election.reelection_bound, 3),
        "new_leader": new_leader,
        "leader_changed": new_leader != victim,
        "term": estate.election.term,
        "no_leader_refusals": estate.geo_ledger.no_leader_refusals,
        "ledger_overcommits": estate.geo_ledger.overcommits,
        "ledger_fenced": int(refused(estate.sim, cause="fenced")),
        "sweep_completed": (sweep_results is not None
                            and len(sweep_results) == len(sweep_params)),
        "sweep_resumed_from": resumed.resumed_from,
        "runs_seen_by_coordinator": list(report.runs_recovered),
        "region_restored": report.restored_at is not None,
        "spillovers": estate.geo_router.spillovers,
        "guard_sheds": int(refused(estate.sim, cause="region_degraded")),
        "refusals": [[cause, t, n] for (cause, t), n in refusals.items()],
        "events_dropped": obs_of(estate.sim).events.dropped,
    }


def _readable(estate, region, key) -> bool:
    try:
        estate.cells[region].warehouse.get_series(key)
        return True
    except Exception:
        return False


# -- report ------------------------------------------------------------------


def run():
    kill = run_region_kill_arm()

    print_table(
        "Multi-region estate under a whole-region kill",
        ["measure", "value", "bound"],
        [
            ["polls issued", kill["polls"], "-"],
            ["user-visible 5xx", kill["user_visible_5xx"], "0"],
            ["RPO (s)", kill["rpo_s"], kill["rpo_bound_s"]],
            ["max replication lag (s)", kill["max_replication_lag_s"],
             kill["replication_interval_s"]],
            ["detection (s)", kill["detection_s"], "-"],
            ["RTO (s)", kill["rto_s"], kill["rto_budget_s"]],
            ["re-election (s)", kill["reelection_s"],
             kill["reelection_bound_s"]],
            ["ledger overcommits", kill["ledger_overcommits"], "0"],
            ["no-leader refusals", kill["no_leader_refusals"], "-"],
            ["sweep resumed from", kill["sweep_resumed_from"], ">0"],
            ["region restored", kill["region_restored"], "True"],
        ])

    print_table(
        "Refusals under the kill, by cause and simulated time",
        ["cause", "t (s)", "refusals"], kill["refusals"])

    return {"exact": {"region_kill": kill}, "host": {}}


def check(result: dict) -> list:
    """The bench's claims; returns human-readable failures."""
    kill = result["exact"]["region_kill"]
    failures = []
    if kill["polls"] == 0:
        failures.append("no polls issued; the availability claim is vacuous")
    if kill["user_visible_5xx"] != 0:
        failures.append(f"{kill['user_visible_5xx']} user-visible 5xx "
                        f"final outcomes under the region kill")
    if kill["max_replication_lag_s"] > kill["replication_interval_s"]:
        failures.append(f"steady-state replication lag "
                        f"{kill['max_replication_lag_s']}s exceeds the "
                        f"{kill['replication_interval_s']}s interval")
    if kill["rpo_s"] > kill["rpo_bound_s"]:
        failures.append(f"RPO {kill['rpo_s']}s exceeds the "
                        f"{kill['rpo_bound_s']}s bound")
    if kill["rto_s"] is None or kill["rto_s"] > kill["rto_budget_s"]:
        failures.append(f"RTO {kill['rto_s']}s outside the "
                        f"{kill['rto_budget_s']}s budget")
    if not kill["leader_changed"] or kill["reelection_s"] is None:
        failures.append("the ledger never re-elected after the leader "
                        "region died")
    elif kill["reelection_s"] > kill["reelection_bound_s"]:
        failures.append(f"re-election took {kill['reelection_s']}s, "
                        f"past the {kill['reelection_bound_s']}s bound")
    stalls = sum(n for cause, _, n in kill["refusals"] if cause == "no_leader")
    if stalls != kill["no_leader_refusals"]:
        failures.append(f"{stalls} no_leader refusals recorded against "
                        f"{kill['no_leader_refusals']} the ledger tallied")
    if kill["events_dropped"] != 0:
        failures.append(f"the event ring dropped {kill['events_dropped']} "
                        f"events; the refusal rows are incomplete")
    if kill["ledger_overcommits"] != 0:
        failures.append(f"{kill['ledger_overcommits']} double-committed "
                        f"capacity admissions")
    if kill["sessions_replaced"] != kill["sessions_detached"]:
        failures.append("some evacuated sessions were never re-placed")
    if not kill["sweep_completed"] or kill["sweep_resumed_from"] == 0:
        failures.append("the durable sweep did not resume from the "
                        "replicated checkpoint in the adopter")
    if not kill["region_restored"]:
        failures.append("the killed region never rejoined after healing")
    return failures


def test_multi_region_failover(benchmark):
    result = once(benchmark, run)
    failures = check(result)
    assert not failures, failures
    assert_committed("multi_region", result["exact"])
