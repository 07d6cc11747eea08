"""Unit tests for the instance runtime (lifecycle, jobs, counters)."""

import pytest

from repro.cloud import (
    Flavor,
    ImageKind,
    Instance,
    InstanceState,
    Job,
    MachineImage,
    MEDIUM,
)
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def make_image(speed=1.0, kind=ImageKind.GENERIC):
    return MachineImage(image_id="img-test", name="test", kind=kind,
                        run_speed_factor=speed)


def make_instance(sim, flavor=MEDIUM, speed=1.0):
    inst = Instance(sim, "os-0000", "openstack", make_image(speed), flavor)
    inst._mark_running()
    return inst


def test_instance_starts_pending_then_running(sim):
    inst = Instance(sim, "os-0000", "openstack", make_image(), MEDIUM)
    assert inst.state == InstanceState.PENDING
    assert not inst.is_serving
    inst._mark_running()
    assert inst.state == InstanceState.RUNNING
    assert inst.is_serving
    assert inst.ready.fired


def test_address_embeds_provider(sim):
    inst = make_instance(sim)
    assert inst.address == "os-0000.openstack.evop"


def test_job_runs_for_cost_over_speed(sim):
    inst = make_instance(sim, flavor=Flavor("f", 1, 1024, 10, compute_speed=2.0))
    done = inst.submit(Job(cost=10.0, compute=lambda: "result"))
    sim.run()
    outcome = done.value
    assert outcome.succeeded
    assert outcome.value == "result"
    assert outcome.duration == pytest.approx(5.0)  # 10 / speed 2


def test_image_speed_factor_scales_service_time(sim):
    fast = make_instance(sim, flavor=Flavor("f", 1, 1024, 10), speed=1.25)
    done = fast.submit(Job(cost=10.0))
    sim.run()
    assert done.value.duration == pytest.approx(8.0)


def test_jobs_queue_when_servers_busy(sim):
    inst = make_instance(sim, flavor=Flavor("f", 1, 1024, 10))
    first = inst.submit(Job(cost=10.0))
    second = inst.submit(Job(cost=10.0))
    assert inst.load() == 2.0  # one running, one queued
    assert inst.cpu_utilization() == 1.0
    sim.run()
    assert first.value.finished_at == pytest.approx(10.0)
    assert second.value.finished_at == pytest.approx(20.0)
    # second job queued 10s then ran 10s
    assert second.value.duration == pytest.approx(10.0)


def test_multiserver_runs_jobs_in_parallel(sim):
    inst = make_instance(sim)  # MEDIUM = 2 vcpus
    outcomes = [inst.submit(Job(cost=10.0)) for _ in range(2)]
    sim.run()
    assert all(sig.value.finished_at == pytest.approx(10.0) for sig in outcomes)


def test_load_counts_queue_and_busy(sim):
    inst = make_instance(sim)  # 2 vcpus
    for _ in range(5):
        inst.submit(Job(cost=100.0))
    assert inst.load() == pytest.approx((2 + 3) / 2)


def test_submit_to_dead_instance_fails_job(sim):
    inst = make_instance(sim)
    inst._mark_terminated()
    done = inst.submit(Job(cost=1.0))
    assert done.fired
    assert not done.value.succeeded
    assert "not serving" in done.value.error


def test_crash_fails_inflight_and_queued_jobs(sim):
    inst = make_instance(sim, flavor=Flavor("f", 1, 1024, 10))
    running = inst.submit(Job(cost=100.0))
    queued = inst.submit(Job(cost=100.0))
    sim.schedule(5.0, inst._mark_failed, "crash")
    sim.run()
    assert not running.value.succeeded
    assert not queued.value.succeeded
    assert inst.jobs_failed == 2
    assert inst.state == InstanceState.FAILED
    # clock must not run to the job's original 100s completion
    assert sim.now == pytest.approx(5.0)


def test_degraded_instance_reports_full_cpu_and_slow_jobs(sim):
    inst = make_instance(sim, flavor=Flavor("f", 1, 1024, 10))
    done = inst.submit(Job(cost=10.0))
    sim.schedule(5.0, inst._degrade, 0.1)
    sim.run()
    assert inst.cpu_utilization() == 1.0
    assert inst.is_serving
    # 5s at full speed (half the work), remaining 5 cost-units at 0.1 speed = 50s
    assert done.value.finished_at == pytest.approx(55.0)


def test_blackhole_stops_outbound_counting(sim):
    inst = make_instance(sim)
    inst.record_bytes_out(100)
    inst._blackhole()
    inst.record_bytes_out(100)
    inst.record_bytes_in(50)
    assert inst.net_bytes_out == 100
    assert inst.net_bytes_in == 50


def test_job_compute_exception_becomes_failed_outcome(sim):
    inst = make_instance(sim)

    def explode():
        raise RuntimeError("model diverged")

    done = inst.submit(Job(cost=1.0, compute=explode))
    sim.run()
    assert not done.value.succeeded
    assert "model diverged" in done.value.error


def test_cpu_busy_seconds_accumulates(sim):
    inst = make_instance(sim, flavor=Flavor("f", 2, 1024, 10))
    inst.submit(Job(cost=10.0))
    inst.submit(Job(cost=4.0))
    sim.run()
    assert inst.cpu_busy_seconds == pytest.approx(14.0)


def test_terminate_while_pending_fires_ready_with_none(sim):
    inst = Instance(sim, "os-0001", "openstack", make_image(), MEDIUM)
    inst._mark_terminated()
    assert inst.ready.fired
    assert inst.ready.value is None
    assert inst.is_gone


def test_zero_cost_job_completes_immediately(sim):
    inst = make_instance(sim)
    done = inst.submit(Job(cost=0.0, compute=lambda: 42))
    sim.run()
    assert done.value.succeeded
    assert done.value.value == 42
    assert sim.now == 0.0


def test_negative_job_cost_rejected():
    with pytest.raises(ValueError):
        Job(cost=-1.0)


def test_install_model_extends_payload(sim):
    inst = make_instance(sim)
    assert "topmodel" not in inst.installed_models
    inst.install_model("topmodel")
    assert "topmodel" in inst.installed_models
