"""REST — stateless REST versus stateful SOAP (Section IV-B).

The paper's architectural argument: SOAP-style services "require high
communication and operation overheads in order to maintain transaction
state on the server.  This has a knock on effect on performance,
scalability, and fault tolerance ... RESTful web services remain
completely stateless ... end user requests are routed to any available
hosted service regardless of previous interactions.  Similarly, failed
VMs are easily replaced."

The experiment: N client sessions of 12 operations each run against 3
replicas.  REST clients can hit any replica per operation; SOAP clients
are pinned to the server holding their session.  Halfway through, one
server crashes.  Expected shape: REST completes every session and keeps
latency flat; SOAP loses the crashed server's sessions and ships more
bytes per operation.
"""

import pytest

from benchmarks.harness import once, print_table
from repro.cloud import FaultInjector, Flavor, ImageKind, Instance, MachineImage
from repro.services import (
    HttpRequest,
    HttpResponse,
    Network,
    RestApi,
    RestServer,
    SoapClient,
    SoapServer,
)
from repro.sim import RandomStreams, Simulator

REPLICAS = 3
CLIENTS = 30
OPS_PER_SESSION = 12
OP_COST = 0.05          # CPU-seconds per operation
THINK_TIME = 2.0
CRASH_AT = 10.0


def make_instance(sim, i):
    image = MachineImage(image_id=f"img-{i}", name="svc",
                         kind=ImageKind.GENERIC)
    inst = Instance(sim, f"os-{i:04d}", "openstack", image,
                    Flavor("f", 2, 2048, 20))
    inst._mark_running()
    return inst


def run_rest():
    sim = Simulator()
    streams = RandomStreams(7)
    network = Network(sim, streams=streams)
    api = RestApi("analysis")
    api.post("/step", lambda req, p: {"state": req.body["state"] + 1},
             cost=OP_COST)
    instances = [make_instance(sim, i) for i in range(REPLICAS)]
    for inst in instances:
        RestServer(sim, api, inst).bind(network)
    injector = FaultInjector(sim, [])
    sim.schedule(CRASH_AT, instances[0]._mark_failed, "crash")

    stats = {"completed": 0, "failed": 0, "latencies": [], "ops": 0}
    rng = streams.get("clients")

    def client(name):
        # client-side state travels in every request: any replica works
        state = 0
        for _op in range(OPS_PER_SESSION):
            yield rng.uniform(0.5, THINK_TIME)
            serving = [i for i in instances if i.is_serving]
            if not serving:
                stats["failed"] += 1
                return
            target = rng.choice(serving)
            sent = sim.now
            reply = yield network.request(
                target.address, HttpRequest("POST", "/v1/step",
                                            body={"state": state}),
                timeout=15.0)
            if not isinstance(reply, HttpResponse) or not reply.ok:
                # stateless: simply retry on another live replica
                serving = [i for i in instances if i.is_serving]
                if not serving:
                    stats["failed"] += 1
                    return
                target = rng.choice(serving)
                reply = yield network.request(
                    target.address, HttpRequest("POST", "/v1/step",
                                                body={"state": state}),
                    timeout=15.0)
                if not isinstance(reply, HttpResponse) or not reply.ok:
                    stats["failed"] += 1
                    return
            stats["latencies"].append(sim.now - sent)
            stats["ops"] += 1
            state = reply.body["state"]
        if state == OPS_PER_SESSION:
            stats["completed"] += 1

    for c in range(CLIENTS):
        sim.spawn(client(f"c{c}"), name=f"rest-client-{c}")
    sim.run()
    stats["bytes"] = network.total_bytes
    return stats


def run_soap():
    sim = Simulator()
    streams = RandomStreams(7)
    network = Network(sim, streams=streams)
    instances = [make_instance(sim, i) for i in range(REPLICAS)]
    servers = []
    for i, inst in enumerate(instances):
        server = SoapServer(sim, f"analysis-{i}", inst,
                            operation_cost=OP_COST).bind(network)
        server.operation(
            "step", lambda session, payload:
            session.state.update(n=session.state.get("n", 0) + 1)
            or {"state": session.state["n"]})
        servers.append(server)
    sim.schedule(CRASH_AT, instances[0]._mark_failed, "crash")

    stats = {"completed": 0, "failed": 0, "latencies": [], "ops": 0}
    rng = streams.get("clients")

    def client(name):
        # conversational state lives on ONE server; the session is pinned
        target = rng.choice(instances)
        soap = SoapClient(network, target.address)
        reply = yield soap.call("begin", timeout=15.0)
        if not isinstance(reply, HttpResponse) or not reply.ok:
            stats["failed"] += 1
            return
        soap.session_id = reply.body["session_id"]
        state = 0
        for _op in range(OPS_PER_SESSION):
            yield rng.uniform(0.5, THINK_TIME)
            sent = sim.now
            reply = yield soap.call("step", timeout=15.0)
            if not isinstance(reply, HttpResponse) or not reply.ok:
                stats["failed"] += 1   # session state is gone with the server
                return
            stats["latencies"].append(sim.now - sent)
            stats["ops"] += 1
            state = reply.body["state"]
        if state == OPS_PER_SESSION:
            stats["completed"] += 1

    for c in range(CLIENTS):
        sim.spawn(client(f"c{c}"), name=f"soap-client-{c}")
    sim.run()
    stats["bytes"] = network.total_bytes
    return stats


def percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q / 100 * len(ordered)))
    return ordered[index]


def test_rest_vs_soap(benchmark):
    results = once(benchmark, lambda: {"rest": run_rest(), "soap": run_soap()})
    rest, soap = results["rest"], results["soap"]

    rows = []
    for label, stats in (("REST (stateless)", rest),
                         ("SOAP (stateful)", soap)):
        rows.append([
            label,
            stats["completed"], stats["failed"],
            1000 * percentile(stats["latencies"], 50),
            1000 * percentile(stats["latencies"], 99),
            stats["bytes"] / max(1, stats["ops"]),
        ])
    print_table(
        f"REST vs SOAP - {CLIENTS} sessions x {OPS_PER_SESSION} ops over "
        f"{REPLICAS} replicas, 1 replica crashes at t={CRASH_AT:.0f}s",
        ["architecture", "sessions ok", "sessions lost", "p50 ms",
         "p99 ms", "bytes/op"],
        rows)

    # shape: statelessness loses no sessions; pinning loses the crashed
    # server's share (~1/3 of clients)
    assert rest["failed"] == 0
    assert rest["completed"] == CLIENTS
    assert soap["failed"] >= CLIENTS // 6
    assert soap["completed"] <= CLIENTS - soap["failed"]
    # envelope overhead: SOAP ships meaningfully more bytes per operation
    assert soap["bytes"] / max(1, soap["ops"]) > \
        1.5 * rest["bytes"] / max(1, rest["ops"])


def test_rest_scales_with_replicas(benchmark):
    """Stateless replicas divide the load: p99 falls as replicas grow."""

    def run(replicas):
        sim = Simulator()
        streams = RandomStreams(11)
        network = Network(sim, streams=streams)
        api = RestApi("analysis")
        api.post("/step", lambda req, p: {"ok": True}, cost=OP_COST)
        instances = [make_instance(sim, i) for i in range(replicas)]
        for inst in instances:
            RestServer(sim, api, inst).bind(network)
        latencies = []
        rng = streams.get("clients")

        def client(c):
            for _ in range(10):
                yield rng.uniform(0.05, 0.3)
                target = rng.choice(instances)
                sent = sim.now
                reply = yield network.request(
                    target.address, HttpRequest("POST", "/v1/step", body={}),
                    timeout=60.0)
                if isinstance(reply, HttpResponse):
                    latencies.append(sim.now - sent)

        for c in range(60):
            sim.spawn(client(c), name=f"c{c}")
        sim.run()
        return percentile(latencies, 99)

    curve = once(benchmark, lambda: {k: run(k) for k in (1, 2, 4, 8)})
    print_table("REST horizontal scaling - p99 vs replica count "
                "(60 clients x 10 ops)",
                ["replicas", "p99 ms"],
                [[k, 1000 * v] for k, v in sorted(curve.items())])
    assert curve[8] < curve[1] / 2  # near-linear relief from statelessness
