"""SCHED — placement cost is flat in pool size; sharding buys isolation.

The ``repro.sched`` plane splits the replica estate over N
rendezvous-hashed shards.  A placement is a peek at the pool's replica
ranking, so its host cost does not depend on how many replicas the pool
holds, and a shard adds a rendezvous hash to every placement rather
than removing work from it.  The bench pins three claims:

1. **the router changes no result** — 200 sessions placed through a
   one-shard router land exactly where they did when the snapshot's
   ``content_key`` was recorded (the router is the only door, so there
   is no second path to race it against); ensembles run with a
   scheduler attached and workflows dispatched through ``admit_call``
   produce exactly the results of library use without an estate
   (``scheduler=None``);
2. **a shard costs a hash, it does not save a search** — the placement
   throughput table by shard count, reported and not gated: each row is
   the median of five interleaved readings off
   :func:`benchmarks.harness.stopwatch`, quoted with its quartiles.
   (That placement cost is flat in *pool* size is held as an exact count
   by ``tests/test_broker_index.py::
   test_placement_evaluations_are_flat_in_pool_size`` and priced at 512
   replicas by the ``placement_churn`` e2e workload.);
3. **priority isolation survives sharding** — under a batch-sweep flood
   the interactive p95 queue wait at 8 shards is no worse than the
   1-shard baseline (per-shard batch headroom spreads reserved slots
   across the estate).  Simulated clock, exact for a commit: the
   process-global id counters are rewound before every measurement,
   because session ids feed the rendezvous hash.

``python -m benchmarks shard_scaling`` rewrites
``BENCH_shard_scaling.json``; under pytest the same ``run`` / ``check``
gate, write nothing, and hold the file's exact half equal to this run's.
"""

from benchmarks.e2e.workloads.common import fresh_ids
from benchmarks.harness import (
    assert_committed,
    once,
    print_table,
    ratio,
    stopwatch,
)
from repro.broker import PrivateFirstPolicy, SessionTable
from repro.cloud import ImageKind, ImageStore, MEDIUM
from repro.core.cell import Cell
from repro.perf.keys import content_key
from repro.perf.runcache import RunCache
from repro.perf.runner import EnsembleRunner
from repro.sched import CapacityLedger, PriorityClass
from repro.services import Network, RestApi
from repro.sim import RandomStreams, Simulator
from repro.workflow import CloudWorkflowEngine, ServiceCall, Workflow
from repro.workflow.cloud import service_node

SHARD_COUNTS = (1, 2, 4, 8)
#: ``content_key`` of the routed 200-session snapshot, recorded at
#: e85d8d2 (where driving ``lb.place_session`` by hand gave the same key)
ROUTED_SESSIONS_KEY = "ec9a96f441728313"
REPLICAS, PLACEMENTS = 512, 3000


# -- plane construction ------------------------------------------------------


class Plane:
    """A wired control plane with N shards and a warm replica estate."""

    def __init__(self, shards, replicas, sessions_per_replica=8,
                 strict_capacity=False, batch_headroom=0,
                 autoscale_interval=1.0e9, seed=42):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        self.ledger = CapacityLedger(self.sim)
        cell = Cell(self.sim, self.streams, self.network, self.sessions,
                    self.ledger, region="bench",
                    private_vcpus=4 * MEDIUM.vcpus * replicas, shards=shards,
                    health_interval=1.0e9, health_window=3,
                    autoscale_interval=autoscale_interval,
                    policy=PrivateFirstPolicy())
        self.private, self.public = cell.private, cell.public
        self.multi, self.monitor = cell.multicloud, cell.monitor
        self.lbs, self.lb, self.sched = cell.lbs, cell.lbs[0], cell.router
        for lb in self.lbs:
            lb.strict_capacity = strict_capacity
            lb.batch_headroom = batch_headroom
        self.images = ImageStore()
        self.image = self.images.create("portal", ImageKind.GENERIC,
                                        size_gb=1.0)
        self.api = RestApi("svc")
        self.api.get("/ping", lambda req, p: {"pong": True})
        self.api.post("/wps/processes/demo/execute",
                      lambda req, p: {"outputs": {
                          "doubled": req.body["inputs"]["x"] * 2}})
        self.service = cell.service(
            "svc", self.api, self.image,
            sessions_per_replica=sessions_per_replica,
            min_replicas=replicas, max_replicas=replicas)

    def warm(self, replicas):
        """Boot the full estate and prove it is serving."""
        self.sched.manage(self.service)
        self.sim.run(until=900.0)
        serving = sum(len(s.serving()) for s in self.sched.services())
        assert serving == replicas, f"warm-up: {serving}/{replicas} serving"
        return self


# -- arm 1: the router changes no result -------------------------------------


def _session_snapshot(count=200):
    fresh_ids()
    plane = Plane(shards=1, replicas=4)
    plane.warm(4)
    for i in range(count):
        plane.sched.submit_session(plane.sessions.create(f"user-{i}"), "svc")
    plane.sim.run(until=1200.0)
    return [(s.user_name, s.state.value,
             None if s.instance is None else s.instance.instance_id,
             s.wait_time)
            for s in plane.sessions.all()]


def _ensemble_results(with_scheduler):
    sim = Simulator()
    router = None
    if with_scheduler:
        plane = Plane(shards=1, replicas=1)
        sim, router = plane.sim, plane.sched

    def simulate(params):
        return {"peak": params["m"] * 1.7 + 0.5, "volume": params["m"] * 12.0}

    runner = EnsembleRunner(simulate, model_id="identity", forcing="storm",
                            cache=RunCache(max_entries=1024),
                            sim=sim, scheduler=router)
    results = runner.run_many([{"m": float(i)} for i in range(200)])
    return results, runner.stats()


def _workflow_outputs(with_scheduler):
    plane = Plane(shards=1, replicas=2)
    plane.warm(2)
    address = plane.sched.services()[0].serving()[0].address
    workflow = Workflow("identity")
    workflow.add(service_node("double", ServiceCall(
        "demo", lambda: address, lambda p, u: {"x": p["x"]})))
    workflow.add(service_node("double-again", ServiceCall(
        "demo", lambda: address, lambda p, u: {"x": u["double"]["doubled"]}),
        depends_on=("double",)))
    engine = CloudWorkflowEngine(
        plane.sim, plane.network,
        scheduler=plane.sched if with_scheduler else None)
    done = engine.run(workflow, {"x": 21})
    plane.sim.run(until=plane.sim.now + 600.0)
    record = done.value
    return None if record is None else record.outputs


def run_identity():
    """The routed paths against their recorded / estate-free results."""
    sessions_routed = _session_snapshot()
    ens_direct, stats_direct = _ensemble_results(with_scheduler=False)
    ens_routed, stats_routed = _ensemble_results(with_scheduler=True)
    wf_direct = _workflow_outputs(with_scheduler=False)
    wf_routed = _workflow_outputs(with_scheduler=True)
    return {
        "sessions_identical":
            content_key(sessions_routed) == ROUTED_SESSIONS_KEY,
        "sessions_compared": len(sessions_routed),
        "ensemble_identical": (ens_routed == ens_direct
                               and stats_routed == stats_direct),
        "workflow_identical": (wf_routed is not None
                               and wf_routed == wf_direct),
    }


# -- arm 2: placement throughput by shard count ------------------------------


def _warm_estate(shards):
    fresh_ids()
    plane = Plane(shards=shards, replicas=REPLICAS).warm(REPLICAS)
    return plane, [plane.sessions.create(f"user-{i}")
                   for i in range(PLACEMENTS)]


def _place(estate):
    plane, users = estate
    for session in users:
        plane.sched.submit_session(session, "svc")
    return users


def run_scaling():
    """Host seconds to place into a warm N-shard estate, per N: the
    artifact's host figures and the printed table."""
    seconds, placed = stopwatch({n: _place for n in SHARD_COUNTS},
                                setup=_warm_estate)
    for users in placed.values():
        active = sum(1 for s in users if s.state.value == "active")
        assert active == PLACEMENTS, f"{active}/{PLACEMENTS} placed"
    host, rows = {}, []
    for n, took in seconds.items():
        # throughput against one shard's: its seconds over this row's
        speedup = ratio(seconds[1], took)
        host[f"scaling.shards={n}.seconds"] = took
        host[f"scaling.shards={n}.speedup"] = speedup
        rows.append([n, took["median"], took["q1"], took["q3"],
                     PLACEMENTS / took["median"],
                     f"{speedup['median']:.2f}x "
                     f"[{speedup['q1']:.2f}, {speedup['q3']:.2f}]"])
    print_table(
        f"placement throughput by shard count (ungated) - {REPLICAS} "
        f"replicas, {PLACEMENTS} placements, median of "
        f"{seconds[1]['repeats']} interleaved {seconds[1]['clock']} readings",
        ["shards", "seconds", "q1", "q3", "placements/s",
         "vs 1 shard [q1, q3]"], rows)
    return host


# -- arm 3: interactive isolation under a batch flood ------------------------


def measure_isolation(shards, replicas=32, batch_n=300, interactive_n=24,
                      autoscale_interval=15.0):
    """Flood the estate with batch work, then let stakeholders arrive.

    Strict-capacity mode with per-shard batch headroom: the sweeps fill
    every slot they are allowed, interactive sessions use the reserved
    slots (or queue ahead of the flood and drain first as batch
    sessions end).  Returns the wait-time distributions per class.
    """
    fresh_ids()
    plane = Plane(shards=shards, replicas=replicas, sessions_per_replica=8,
                  strict_capacity=True, batch_headroom=4,
                  autoscale_interval=autoscale_interval)
    plane.warm(replicas)
    t0 = plane.sim.now
    batch = [plane.sessions.create(f"sweep-{i}") for i in range(batch_n)]
    for session in batch:
        plane.sched.submit_session(session, "svc",
                                   priority=PriorityClass.BATCH)
    # the sweeps finish on a staggered schedule, freeing slots
    for i, session in enumerate(batch):
        plane.sim.schedule(120.0 + 5.0 * i, session.end)
    plane.sim.run(until=t0 + 60.0)
    interactive = [plane.sessions.create(f"stakeholder-{i}")
                   for i in range(interactive_n)]
    for session in interactive:
        plane.sched.submit_session(session, "svc",
                                   priority=PriorityClass.INTERACTIVE)
    plane.sim.run(until=t0 + 120.0 + 5.0 * batch_n + 600.0)
    waits = sorted(s.wait_time for s in interactive
                   if s.wait_time is not None)
    assert len(waits) == interactive_n, "interactive sessions left waiting"
    batch_waits = sorted(s.wait_time for s in batch
                         if s.wait_time is not None)
    return {
        "shards": shards,
        "interactive_p50": _pct(waits, 0.50),
        "interactive_p95": _pct(waits, 0.95),
        "interactive_max": waits[-1],
        "batch_placed": len(batch_waits),
        "batch_p50": _pct(batch_waits, 0.50),
        "batch_p95": _pct(batch_waits, 0.95),
    }


def _pct(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(q * len(sorted_values)) - 1))
    return sorted_values[index]


# -- orchestration -----------------------------------------------------------


def run():
    exact = {
        "identity": run_identity(),
        "scaling": [{"shards": n, "replicas": REPLICAS,
                     "placements": PLACEMENTS} for n in SHARD_COUNTS],
        "isolation": [measure_isolation(shards) for shards in (1, 8)],
    }

    identity = exact["identity"]
    print_table(
        "routed results: sessions vs the recorded key, ensemble and "
        "workflow vs no scheduler",
        ["path", "identical"],
        [["broker sessions", identity["sessions_identical"]],
         ["ensemble batches", identity["ensemble_identical"]],
         ["workflow stages", identity["workflow_identical"]]])
    host = run_scaling()
    print_table(
        "interactive isolation under a 300-sweep batch flood (sim s)",
        ["shards", "interactive p50", "interactive p95",
         "interactive max", "batch p50", "batch p95"],
        [[r["shards"], r["interactive_p50"], r["interactive_p95"],
          r["interactive_max"], r["batch_p50"], r["batch_p95"]]
         for r in exact["isolation"]])
    return {"exact": exact, "host": host}


def check(result):
    failures = []
    identity = result["exact"]["identity"]
    for arm in ("sessions", "ensemble", "workflow"):
        if not identity[f"{arm}_identical"]:
            failures.append(f"routed {arm} results moved")
    base, sharded = result["exact"]["isolation"]
    if sharded["interactive_p95"] > base["interactive_p95"] + 1e-9:
        failures.append(
            f"interactive p95 wait regressed under sharding: "
            f"{sharded['interactive_p95']:.1f}s vs "
            f"{base['interactive_p95']:.1f}s at one shard")
    if base["batch_p95"] <= 0.0:
        failures.append("batch flood never queued - the isolation arm "
                        "is not exercising priority classes")
    return failures


def test_shard_scaling(benchmark):
    result = once(benchmark, run)
    failures = check(result)
    assert not failures, "; ".join(failures)
    assert_committed("shard_scaling", result["exact"])
