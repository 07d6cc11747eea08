"""``Signal.then`` against the idiom it replaced.

Before continuations, "react to this signal" was written as a spawned
generator with one ``yield``.  That idiom is gone from the request path
and lives on only here, as the oracle: every program below runs twice —
once with :meth:`Signal.then`, once with ``spawn_waiter`` — and the
bodies must run in the same order at the same simulated time.

What is pinned, and where:

* on one signal, continuations fire in the order ``then`` was called,
  as the spawned waiters fired in the order they were spawned — under
  any interleaving of registrations, fires, timers, cancellations and
  interrupted bystanders, including several operations inside one event;
* a body's ``sim.now`` is identical — a continuation only removes
  zero-delay hops;
* when operations are separated in time, the *whole-program* body order
  is identical too.  (Inside one instant it need not be: a continuation
  registers when ``then`` is called, a spawned waiter one event later,
  so a reaction can overtake a body queued in between.  The request
  path's order is pinned end to end by the budget tests below and by
  ``benchmarks/e2e/golden.json``.)
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.cloud.instance import Job
from repro.obs import obs_of
from repro.obs.context import inject_context
from repro.services import (HttpRequest, Network, PushGateway, RestApi,
                            RestServer)
from repro.services.rest import RestDeferred
from repro.sim import Interrupt, Simulator
from repro.sim import kernel
from repro.sim.kernel import SimulationError
from repro.tenancy import RateLimiter, TenantSpec
from repro.tenancy.context import TENANT_HEADER

# -- the oracle ---------------------------------------------------------------


def spawn_waiter(sim, signal, body):
    """The retired idiom: a process whose whole life is one wait."""

    def waiter():
        body((yield signal))

    sim.spawn(waiter(), name="oracle.waiter")


def react(sim, signal, body, continuations):
    if continuations:
        signal.then(body)
    else:
        spawn_waiter(sim, signal, body)


SIGNALS = 3

signal_ids = st.integers(0, SIGNALS - 1)
operations = st.one_of(
    st.tuples(st.just("wait"), signal_ids),
    st.tuples(st.just("fire"), signal_ids),
    st.tuples(st.just("timer"), signal_ids, st.sampled_from((0.5, 1.0, 2.0))),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("flow"), signal_ids),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
)
#: how the driver gets from one operation to the next: straight on
#: (same event), one zero-delay hop, or a second of simulated time
gaps = st.sampled_from(("same", "hop", "later"))


def run_program(program, continuations):
    """Run ``program``; returns ``(reactions, flows)`` logs.

    ``reactions`` is every converted waiter's ``(signal, waiter, value,
    now)`` in the order the bodies ran; ``flows`` maps each bystander
    coroutine to its own ``(tag, now)`` trail.
    """
    sim = Simulator()
    signals = [sim.signal(f"s{i}") for i in range(SIGNALS)]
    reactions, flows, timers, procs = [], {}, [], []

    def fire(index):
        if not signals[index].fired:
            signals[index].fire(f"v{index}@{sim.now}")

    def flow(flow_id, index):
        trail = flows.setdefault(flow_id, [])
        try:
            value = yield signals[index]
            trail.append((f"woke:{value}", sim.now))
            yield 0.25
            trail.append(("slept", sim.now))
        except Interrupt as interrupt:
            trail.append((f"interrupted:{interrupt.cause}", sim.now))

    def driver():
        for waiter, (op, gap) in enumerate(program):
            kind = op[0]
            if kind == "wait":
                react(sim, signals[op[1]],
                      lambda value, w=waiter, s=op[1]:
                      reactions.append((s, w, value, sim.now)),
                      continuations)
            elif kind == "fire":
                fire(op[1])
            elif kind == "timer":
                timers.append(sim.schedule(op[2], fire, op[1]))
            elif kind == "cancel" and op[1] < len(timers):
                timers[op[1]].cancel()
            elif kind == "flow":
                procs.append(sim.spawn(flow(len(procs), op[1])))
            elif kind == "interrupt" and op[1] < len(procs):
                procs[op[1]].interrupt(cause=waiter)
            if gap == "hop":
                yield 0
            elif gap == "later":
                yield 1.0

    sim.spawn(driver(), name="driver")
    sim.run()
    assert not sim.failures
    return reactions, flows


def per_signal(reactions):
    return {s: [entry for entry in reactions if entry[0] == s]
            for s in range(SIGNALS)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(operations, gaps), max_size=30))
def test_then_matches_spawned_waiters_on_each_signal(program):
    got, got_flows = run_program(program, continuations=True)
    want, want_flows = run_program(program, continuations=False)
    # same bodies, same values, same simulated time, same order per signal
    assert per_signal(got) == per_signal(want)
    # the coroutines sharing those signals are not disturbed
    assert got_flows == want_flows


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=30))
def test_then_matches_spawned_waiters_in_whole_program_order(ops):
    program = [(op, "later") for op in ops]
    got, got_flows = run_program(program, continuations=True)
    want, want_flows = run_program(program, continuations=False)
    assert got == want
    assert got_flows == want_flows


def test_waiters_fire_in_registration_order_processes_and_then_mixed():
    sim = Simulator()
    signal = sim.signal("mixed")
    order = []

    def process(tag):
        order.append((tag, (yield signal)))

    def driver():
        sim.spawn(process("p1"))
        yield 0                    # p1 is now waiting on the signal
        signal.then(lambda value: order.append(("c1", value)))
        sim.spawn(process("p2"))
        yield 0
        signal.then(lambda value: order.append(("c2", value)))
        signal.fire("go")
        signal.then(lambda value: order.append(("late", value)))

    sim.spawn(driver())
    sim.run()
    assert order == [("p1", "go"), ("c1", "go"), ("p2", "go"), ("c2", "go"),
                     ("late", "go")]


def test_then_on_fired_signal_is_an_event_not_a_call():
    sim = Simulator()
    signal = sim.signal("done")
    signal.fire(7)
    seen = []
    signal.then(seen.append)
    assert seen == []              # never re-entrant
    sim.run()
    assert seen == [7] and sim.now == 0.0


def test_cancelled_timer_never_runs_its_continuations():
    sim = Simulator()
    signal = sim.signal("never")
    seen = []
    signal.then(seen.append)
    sim.schedule(5.0, signal.fire, "late").cancel()
    assert sim.run() == 0.0
    assert seen == []


# -- failure contract ---------------------------------------------------------


def boom(value):
    raise ValueError(f"boom {value}")


def test_raising_continuation_fails_a_strict_run_under_its_name():
    sim = Simulator()
    signal = sim.signal("s")
    signal.then(boom)
    sim.schedule(2.0, signal.fire, 1)
    with pytest.raises(SimulationError,
                       match=r"'boom' failed at t=2\.000") as caught:
        sim.run()
    assert isinstance(caught.value.__cause__, ValueError)


def test_raising_continuation_is_recorded_and_a_lenient_run_carries_on():
    sim = Simulator(strict=False)
    signal = sim.signal("s")
    after = []
    signal.then(boom)
    signal.then(after.append)
    sim.schedule(1.0, signal.fire, "x")
    sim.schedule(3.0, after.append, "later event")
    assert sim.run() == 3.0
    assert after == ["x", "later event"]
    [(failed, error)] = sim.failures
    assert failed.name == "boom"
    assert str(error) == "boom x"


# -- a process costs what it uses ---------------------------------------------


def test_done_signal_joined_before_death():
    sim = Simulator()

    def child():
        yield 2.0
        return "result"

    proc = sim.spawn(child())
    done = proc.done_signal
    assert done is proc.done_signal and not done.fired
    seen = []
    done.then(seen.append)
    sim.run()
    assert seen == ["result"] and done.fired


def test_done_signal_joined_after_death_is_already_fired():
    sim = Simulator()

    def child():
        yield 1.0
        return "result"

    proc = sim.spawn(child())
    sim.run()
    assert not proc.alive
    done = proc.done_signal
    assert done.fired and done.value == "result"

    def joiner():
        return (yield proc)

    assert sim.run_process(joiner()) == "result"


def test_done_signal_of_a_failed_process_fires_none():
    sim = Simulator(strict=False)

    def child():
        yield 1.0
        raise RuntimeError("dead")

    early = sim.spawn(child())
    late = sim.spawn(child())
    joined = early.done_signal
    sim.run()
    assert joined.fired and joined.value is None
    assert late.done_signal.fired and late.done_signal.value is None


def test_finished_unreferenced_process_is_collected():
    sim = Simulator()
    payload = type("Payload", (), {})()

    def worker(held):
        yield 1.0
        return held

    generator = worker(payload)
    sim.spawn(generator)
    # (a Process has __slots__ and no __weakref__; its generator and its
    # result stand in for it — it holds both until it is collected)
    generator_ref, payload_ref = weakref.ref(generator), weakref.ref(payload)
    del generator, payload
    sim.run()
    gc.collect()
    # the simulator keeps no list of what it ever spawned
    assert generator_ref() is None and payload_ref() is None
    assert not hasattr(sim, "_processes")


def test_all_of_values_in_input_order_whatever_the_firing_order():
    sim = Simulator()
    a, b, c = sim.signal("a"), sim.signal("b"), sim.signal("c")
    b.fire("B")                    # one input already fired
    combined = sim.all_of([a, b, c])
    seen = []
    combined.then(lambda values: seen.append((sim.now, values)))
    sim.schedule(2.0, c.fire, "C")
    sim.schedule(5.0, a.fire, "A")
    sim.run()
    assert seen == [(5.0, ["A", "B", "C"])]


def test_all_of_matches_the_spawned_waiter_version():
    def old_all_of(sim, signals):
        pending = list(signals)
        combined = sim.signal("all")
        remaining = [len(pending)]

        def arrived(_value):
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.fire([s.value for s in pending])

        for sig in pending:
            spawn_waiter(sim, sig, arrived)
        return combined

    def run(all_of):
        sim = Simulator()
        inputs = [sim.signal(str(i)) for i in range(4)]
        seen = []
        all_of(sim, inputs).then(
            lambda values: seen.append((sim.now, values)))
        for delay, sig in zip((3.0, 1.0, 3.0, 2.0), inputs):
            sim.schedule(delay, sig.fire, delay)
        sim.run()
        return seen

    assert run(lambda sim, sigs: sim.all_of(sigs)) == run(old_all_of) \
        == [(3.0, [3.0, 1.0, 3.0, 2.0])]


# -- the per-request event budget ---------------------------------------------
#
# Counts, not timings: they repeat exactly, so they gate without a noise
# margin.  A GET's calendar events: client timeout, request delivery,
# handler job completion, response delivery, the caller's own reaction
# to the reply.  Inside the replica everything is a direct call: the job
# calls the server's reaction, which meters and calls the transport's
# ``reply``, in the event that completed the job.  A request answered
# without a job (404, 429, a full accept queue) drops the job
# completion: four events.

IMAGE = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)


@pytest.fixture()
def counted(monkeypatch):
    """A served API plus a count of every ``Process`` constructed."""
    built = []
    init = kernel.Process.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel.Process, "__init__", counting_init)
    sim = Simulator()
    network = Network(sim)
    instance = Instance(sim, "os-0000", "openstack", IMAGE,
                        Flavor("f", 2, 2048, 20))
    instance._mark_running()
    api = RestApi("catalog")
    api.get("/catchments/{catchment}/stats",
            lambda request, params: {"catchment": params["catchment"]})
    api.get("/runs/{run_id}/result", lambda request, params: RestDeferred(
        job=Job(cost=0.5, name="render"),
        render=lambda outcome: (200, {"run": params["run_id"]})))
    RestServer(sim, api, instance).bind(network)
    return sim, network, instance, api, built


def events_of_one_get(sim, network, address, path, headers=None,
                      status=200):
    replies = []
    before = sim.events_scheduled
    network.request(address, HttpRequest("GET", path, headers=headers or {})
                    ).then(replies.append)
    sim.run()
    [response] = replies
    assert response.status == status
    return sim.events_scheduled - before


def test_untraced_get_costs_5_events_and_no_process(counted):
    sim, network, instance, _api, built = counted
    assert events_of_one_get(sim, network, instance.address,
                             "/v1/catchments/eden/stats") == 5
    assert built == []
    assert len(obs_of(sim).tracer.spans()) == 0


def test_traced_get_costs_6_events_and_no_process(counted):
    sim, network, instance, _api, built = counted
    root = obs_of(sim).tracer.start_span("test")
    headers = {}
    inject_context(root.context, headers)
    # one more than untraced: the client span closes on the reply
    assert events_of_one_get(sim, network, instance.address,
                             "/v1/catchments/eden/stats", headers) == 6
    assert built == []
    names = sorted(span.name.split()[0]
                   for span in obs_of(sim).tracer.spans())
    assert names == ["http", "job", "rest", "test"]
    assert all(span.finished for span in obs_of(sim).tracer.spans()
               if span is not root)


def test_deferred_get_costs_6_events_and_no_process(counted):
    sim, network, instance, _api, built = counted
    # one more than a plain GET: the deferred job's completion, which
    # renders and replies in the same event
    assert events_of_one_get(sim, network, instance.address,
                             "/v1/runs/r-1/result") == 6
    assert built == []


def test_unrouted_404_costs_4_events(counted):
    sim, network, instance, _api, _built = counted
    assert events_of_one_get(sim, network, instance.address, "/v1/nowhere",
                             status=404) == 4


def test_rate_limited_429_costs_4_events(counted):
    sim, network, instance, api, _built = counted
    api.tenants.register(TenantSpec("org-a", rate=0.001, burst=1.0))
    api.limiter = RateLimiter(sim, api.tenants)
    assert api.limiter.check("org-a").allowed        # the one token
    assert events_of_one_get(sim, network, instance.address,
                             "/v1/catchments/eden/stats",
                             {TENANT_HEADER: "org-a"}, status=429) == 4


def test_queue_full_503_costs_4_events(counted):
    sim, network, instance, _api, _built = counted
    instance.max_queue = 0          # every job is refused at submission
    assert events_of_one_get(sim, network, instance.address,
                             "/v1/catchments/eden/stats", status=503) == 4


def test_push_frame_job_allocates_no_signal(monkeypatch):
    sim = Simulator()
    instance = Instance(sim, "ws-0000", "openstack", IMAGE,
                        Flavor("f", 1, 2048, 20))
    instance._mark_running()
    gateway = PushGateway(sim, instance)
    for k in range(3):
        gateway.connect(f"client-{k}")
    signals = []
    init = kernel.Signal.__init__

    def counting_init(self, *args, **kwargs):
        signals.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel.Signal, "__init__", counting_init)
    before = sim.events_scheduled
    gateway.broadcast({"level": 1.5})
    sim.run()
    # one frame job for the three sockets, three arrivals, no signal
    assert sim.events_scheduled - before == 4
    assert instance.jobs_completed == 1
    assert signals == []
