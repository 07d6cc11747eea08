"""One stack per region: ``Evop`` is one :class:`Cell`, ``GeoEstate`` N."""

import inspect

import pytest

from repro.broker import (
    LoadBalancer,
    PrivateFirstPolicy,
    PrivateOnlyPolicy,
    PublicOnlyPolicy,
    WorkloadSplitPolicy,
)
from repro.core.cell import Cell
from repro.core.evop import Evop
from repro.geo import (
    GeoEstate,
    GeoLedger,
    GeoRouter,
    LeaderElection,
    Replicator,
)
from repro.sched import ClassedQueue, ShardedRouter

#: what a cell is, by name: the wiring it was handed, then what it built
STACK = ["sim", "network", "region", "private", "public", "providers",
         "multicloud", "store", "warehouse", "journals", "monitor",
         "recovery", "lbs", "router"]


def parameters(function):
    return list(inspect.signature(function).parameters)[1:]


def test_both_estates_stand_on_the_same_complete_cell():
    evop, estate = Evop(), GeoEstate(regions=2)
    cells = [evop.cell, *estate.cells.values()]
    assert [cell.region for cell in cells] == ["evop", "eu-west", "us-east"]
    for cell in cells:
        assert type(cell) is Cell
        # the ping api is the estate's annotation, not part of the stack
        assert [name for name in vars(cell) if name != "api"] == STACK
        assert all(value is not None for value in vars(cell).values())
        assert cell.router.lbs == cell.lbs and cell.lbs
        assert cell.recovery.store is cell.journals
    # an Evop's own names are the cell's objects, not copies
    assert (evop.private, evop.storage, evop.sched, evop.recovery) == (
        evop.cell.private, evop.cell.store, evop.cell.router,
        evop.cell.recovery)


def test_a_cell_speaks_local_labels_and_only_the_ledger_qualifies():
    estate = GeoEstate(regions=2, private_vcpus=16).warm(until=80.0)
    for region, cell in estate.cells.items():
        assert cell.multicloud.locations() == ["private", "public"]
        assert cell.multicloud.blobstore("private") is cell.store
        (replica,) = cell.multicloud.list_nodes("private")
        assert replica.provider_name == f"openstack-{region}"
        assert cell.multicloud.location_of(replica) == "private"
        assert cell.lbs[0].ledger.committed("private") == 2
    assert estate.geo_ledger.snapshot() == {"eu-west/private": 2,
                                            "us-east/private": 2}


def test_no_option_comes_back_unnoticed():
    assert parameters(GeoEstate.__init__) == [
        "regions", "private_vcpus", "replication_interval", "election_ttl",
        "election_check", "failover_interval", "seed"]
    assert parameters(GeoEstate.manage) == []
    assert parameters(GeoEstate.warm) == ["until"]
    assert parameters(Cell.__init__) == [
        "sim", "streams", "network", "sessions", "ledger", "region",
        "private_vcpus", "shards", "health_interval", "health_window",
        "autoscale_interval", "policy", "private_name", "public_name",
        "public_limit", "meter", "breakers", "registry", "monitor_metrics",
        "sched_metrics"]
    # the scheduling plane's wiring is required, and nothing selects a
    # location label or a second way to queue, dispatch or burst
    assert parameters(LoadBalancer.__init__) == [
        "sim", "multicloud", "network", "sessions", "policy", "monitor",
        "ledger", "registry", "autoscale_interval", "breakers", "shard_id",
        "strict_capacity", "batch_headroom", "queue_bounds"]
    assert parameters(ShardedRouter.__init__) == [
        "sim", "lbs", "ledger", "multicloud", "metrics"]
    assert parameters(ClassedQueue.__init__) == ["bounds"]
    # the geo plane: one book, and no switch for a brownout, a second
    # election or a second meter
    assert parameters(GeoLedger.__init__) == ["sim", "election", "capacity"]
    assert parameters(GeoRouter.__init__) == ["sim", "topology", "routers"]
    assert parameters(LeaderElection.__init__) == [
        "sim", "topology", "journals", "ttl", "check_interval"]
    assert parameters(Replicator.__init__) == ["sim", "topology", "interval"]
    for policy in (PrivateFirstPolicy, WorkloadSplitPolicy,
                   PrivateOnlyPolicy, PublicOnlyPolicy):
        assert list(inspect.signature(policy).parameters) == []


def test_failover_refuses_a_stranger_and_a_second_attachment():
    estate = GeoEstate(regions=2)
    with pytest.raises(ValueError, match="not in topology"):
        estate.failover.add_region(Evop().cell)
    with pytest.raises(ValueError, match="already attached"):
        estate.failover.add_region(estate.cells["us-east"])


@pytest.mark.parametrize("kind", ["evop", "geo"])
def test_a_store_is_addressed_by_its_name_on_every_estate(kind):
    if kind == "evop":
        estate = Evop()
        cell = estate.cell
    else:
        estate = GeoEstate(regions=2)
        cell = estate.cells["us-east"]
    injector = estate.injector
    injector.storage_fault(cell.store.name, "unavailable")
    assert cell.store.faulted
    injector.heal_storage(cell.store.name)
    assert not cell.store.faulted
    injector.outage(cell.store.name, 30.0)
    assert cell.store.faulted
    cell.sim.run(until=cell.sim.now + 31.0)
    assert not cell.store.faulted
    with pytest.raises(ValueError, match="no blob store named 'private'"):
        injector.outage("private", 30.0)
