"""A request builds no closure: every reaction is a bound method.

What the simulator schedules while it serves a plain GET, a traced GET,
a ``RestDeferred`` request and a SOAP call — each event's function, the
continuations it runs and the reactions of the jobs it carries — is
named by a method or a module function, never by a function defined
inside another (``<locals>`` in its qualified name).  A running job is
its finish event alone: nothing about it outlives the job, whether it
completes, is stretched by a degrade or is aborted by a crash, and CPU
time is charged from the start time that event carries.  The network's
latency draw is ``uniform``'s, bit for bit.
"""

from functools import partial

import pytest

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.cloud.instance import Job
from repro.obs import obs_of
from repro.obs.context import inject_context
from repro.services import HttpRequest, Network, RestApi, RestServer
from repro.services.rest import RestDeferred
from repro.services.soap import SoapServer
from repro.services.transport import BASE_LATENCY, LATENCY_JITTER
from repro.sim import RandomStreams, Simulator

IMAGE = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)


def stats(request, params):
    return {"catchment": params["catchment"]}


def rendered(outcome):
    return 200, {"rendered": True}


def deferred(request, params):
    return RestDeferred(job=Job(cost=0.5, name="render"), render=rendered)


def echo(session, payload):
    return {"echo": payload}


def _named(fn):
    while isinstance(fn, partial):
        fn = fn.func
    return getattr(fn, "__qualname__", repr(fn))


@pytest.fixture()
def scheduled(monkeypatch):
    """A REST and a SOAP replica, and the qualified name of everything
    the simulator is asked to run: each event's function, each callable
    argument (a continuation) and each carried job's reactions."""
    names = []
    schedule = Simulator.schedule

    def recording(self, delay, fn, *args):
        names.append(_named(fn))
        for arg in args:
            if isinstance(arg, Job):
                names.extend(_named(f) for f in (arg.on_done, arg.compute))
            elif callable(arg):
                names.append(_named(arg))
        return schedule(self, delay, fn, *args)

    monkeypatch.setattr(Simulator, "schedule", recording)
    sim = Simulator()
    network = Network(sim)
    rest_host, soap_host = (
        Instance(sim, name, "openstack", IMAGE, Flavor("f", 2, 2048, 20))
        for name in ("os-0000", "os-0001"))
    rest_host._mark_running()
    soap_host._mark_running()
    api = RestApi("catalog")
    api.get("/catchments/{catchment}/stats", stats)
    api.get("/runs/{run_id}/result", deferred)
    RestServer(sim, api, rest_host).bind(network)
    soap = SoapServer(sim, "legacy", soap_host).bind(network)
    soap.operation("echo", echo)
    return sim, network, rest_host, soap_host, names


def _serve(sim, network, address, request):
    replies = []
    network.request(address, request).then(replies.append)
    sim.run()
    [response] = replies
    assert response.status == 200
    return response


def test_no_request_path_callable_is_a_closure(scheduled):
    sim, network, rest_host, soap_host, names = scheduled
    _serve(sim, network, rest_host.address,
           HttpRequest("GET", "/v1/catchments/eden/stats"))
    root = obs_of(sim).tracer.start_span("test")
    headers = {}
    inject_context(root.context, headers)
    _serve(sim, network, rest_host.address,
           HttpRequest("GET", "/v1/catchments/eden/stats", headers=headers))
    _serve(sim, network, rest_host.address,
           HttpRequest("GET", "/v1/runs/r-1/result"))
    session = _serve(sim, network, soap_host.address, HttpRequest(
        "POST", "/soap/begin", body={"op": "begin"})).body["session_id"]
    _serve(sim, network, soap_host.address, HttpRequest(
        "POST", "/soap/echo",
        body={"op": "echo", "session_id": session, "payload": 1}))
    assert not [name for name in names if "<locals>" in name]
    # the recorder saw the whole path, the traced client span included
    assert {"Instance._finish_job", "Network._deliver", "Network._settle",
            "Network._client_watch", "RestServer._on_outcome",
            "RestServer._on_deferred", "SoapServer._run",
            "SoapServer._on_outcome"} <= set(names)


def _host(sim, vcpus):
    instance = Instance(sim, "os-0000", "openstack", IMAGE,
                        Flavor("f", vcpus, 2048, 20))
    instance._mark_running()
    return instance


def test_no_job_is_remembered_at_quiescence_or_after_a_crash():
    sim = Simulator()
    instance = _host(sim, 2)
    for _ in range(5):
        instance.submit(Job(cost=2.0))
    sim.run()
    assert instance._running_jobs == {}
    assert instance.jobs_completed == 5
    outcomes = [instance.submit(Job(cost=4.0)) for _ in range(3)]
    sim.schedule(1.0, instance._mark_failed, "crash")
    sim.run()
    assert instance._running_jobs == {}
    assert [signal.value.error for signal in outcomes] == ["crash"] * 3


def test_cpu_busy_seconds_after_a_degrade_stretches_two_running_jobs():
    sim = Simulator()
    instance = _host(sim, 2)
    first = instance.submit(Job(cost=8.0))
    sim.schedule(1.0, instance.submit, Job(cost=8.0))
    sim.schedule(2.0, instance._degrade, 0.5)
    sim.run()
    # half speed from t=2 doubles what is left: 6 s → 12 s and 7 s → 14 s
    assert first.value.finished_at == 14.0
    assert instance.cpu_busy_seconds == 14.0 + 15.0
    assert instance._running_jobs == {}


def test_cpu_busy_seconds_after_a_crash_aborts_a_running_job():
    sim = Simulator()
    instance = _host(sim, 1)
    instance.submit(Job(cost=4.0))
    aborted = instance.submit(Job(cost=4.0))    # queued, starts at 4
    sim.schedule(6.5, instance._mark_failed, "crash")
    sim.run()
    assert aborted.value.error == "crash"
    assert instance.cpu_busy_seconds == 4.0 + 2.5


def test_latency_draws_the_bits_uniform_drew():
    network = Network(Simulator(), RandomStreams(seed=5))
    twin = RandomStreams(seed=5).get("network.latency")
    for _ in range(10_000):
        assert network._latency() \
            == BASE_LATENCY + twin.uniform(0, LATENCY_JITTER)
