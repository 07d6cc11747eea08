"""Tests for the operator drain action."""

import pytest

from repro.cloud import (
    Flavor,
    ImageKind,
    Instance,
    Job,
    MachineImage,
    MEDIUM,
    SMALL,
)
from repro.core import Evop, EvopConfig
from repro.obs import obs_of


@pytest.fixture()
def deployment():
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=13,
                           min_replicas=2)).bootstrap()
    evop.run_for(400.0)
    return evop


def test_drain_migrates_and_waits_for_inflight_work(deployment):
    evop = deployment
    service = evop.lb.service("left-morland")
    victim, survivor = service.serving()[:2]

    session = evop.rb.connect("drain-user", "left-morland")
    session.assign(victim)
    # long-running work in flight on the victim
    job_done = victim.submit(Job(cost=50.0, name="inflight"))

    drained = evop.lb.drain(victim)
    # the session moved immediately; the instance lingers to finish work
    assert session.instance is not victim
    assert not victim.is_gone
    evop.run_for(600.0)
    assert drained.value is True
    assert victim.is_gone
    # the in-flight job completed before termination
    assert job_done.value.succeeded
    assert victim not in service.replicas
    assert not evop.network.is_registered(victim.address)


def test_drain_idle_instance_is_quick(deployment):
    evop = deployment
    service = evop.lb.service("left-morland")
    victim = service.serving()[0]
    start = evop.sim.now
    drained = evop.lb.drain(victim)
    evop.run_for(30.0)
    assert drained.value is True
    assert victim.is_gone
    assert evop.sim.now - start <= 30.0


def test_drain_unmanaged_instance_returns_false(deployment):
    evop = deployment
    image = MachineImage(image_id="img-x", name="x", kind=ImageKind.GENERIC)
    rogue = Instance(evop.sim, "os-rogue", "openstack", image,
                     Flavor("m", 2, 4096, 40))
    rogue._mark_running()
    drained = evop.lb.drain(rogue)
    evop.run_for(5.0)
    assert drained.value is False
    assert rogue.is_serving  # untouched


def test_autoscaler_replaces_drained_capacity(deployment):
    evop = deployment
    service = evop.lb.service("left-morland")
    victim = service.serving()[0]
    evop.lb.drain(victim)
    evop.run_for(600.0)
    # min_replicas=2: the pool healed after the drain
    assert len(service.serving()) >= 2


def test_drain_gives_its_vcpus_back_to_the_ledger(deployment):
    evop = deployment
    victim = evop.lb.service("left-morland").serving()[0]
    drained = evop.lb.drain(victim)
    evop.run_for(600.0)
    assert drained.value is True
    assert len(evop.lb.service("left-morland").serving()) >= 2
    # the book holds the live replicas and nothing else: the broker's
    # own host was launched outside the Load Balancer
    replicas = [inst for inst in evop.multicloud.list_nodes("private")
                if inst is not evop.rb.gateway.instance]
    assert evop.ledger.committed("private") == sum(
        inst.flavor.vcpus for inst in replicas)


def test_draining_the_only_public_replica_ends_the_burst():
    # the private pool fits the broker's host and one replica, so the
    # second replica bursts; no autoscale pass runs to relaunch it
    evop = Evop(EvopConfig(truth_days=3, storm_day=1, seed=13,
                           min_replicas=2,
                           private_vcpus=SMALL.vcpus + MEDIUM.vcpus,
                           autoscale_interval=1.0e9)).bootstrap()
    evop.run_for(400.0)
    assert evop.sched.cloudbursting
    (victim,) = evop.multicloud.list_nodes("public")
    start = evop.sim.now
    drained = evop.lb.drain(victim)
    evop.run_for(30.0)
    assert drained.value is True
    assert not evop.sched.cloudbursting
    exits = obs_of(evop.sim).events.events("sched.cloudburst.exit",
                                           since=start)
    assert len(exits) == 1
