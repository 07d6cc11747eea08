"""A consumer drain: one cursor commit per batch, attempts only on failure.

A :class:`~repro.dataplane.consumers.ConsumerGroup` drains a stream in
one simulator step: it applies every event past the committed cursor,
then commits the cursor once.  A failed-delivery count is a blob only
while an event keeps failing.  What is pinned here, and where:

* the blob budget, as exact counts of ``Container.put`` calls: a drain
  of N healthy events is one cursor put and no ``attempts/`` blob, and
  recording and relaying N events is N outbox puts and N stream puts;
* under any schedule of records, relay drains, polls, consumer crashes,
  claim expiry with takeover, store outages and poison events, the
  views equal a fresh fold of the streams, every healthy event is
  applied exactly once, and a poison event is parked after exactly
  ``MAX_ATTEMPTS`` deliveries, whichever consumers made them.
"""

from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cloud.errors import StorageUnavailable
from repro.cloud.storage import BlobStore, Container
from repro.dataplane import DataPlane
from repro.dataplane.consumers import CLAIM_TTL, MAX_ATTEMPTS
from repro.dataplane.views import (
    CatchmentStatsView,
    LatestObservationView,
    view_fingerprint,
)
from repro.sim import Simulator

CATCHMENTS = ("eden", "morland")
CONSUMERS = 3


def record(plane, catchment, procedure, value):
    """Record one observation; ``procedure`` names it uniquely."""
    return plane.outbox.record(
        f"obs.{catchment}", "observation", key=procedure,
        payload={"procedure": procedure, "time": plane.sim.now,
                 "value": value, "catchment": catchment})


def reject_poison(event):
    if event.key.startswith("poison"):
        raise ValueError("poison observation")


# -- the blob budget ----------------------------------------------------------


@pytest.fixture()
def puts(monkeypatch):
    """Every ``Container.put`` as ``(container, key)``, in order."""
    log = []
    put = Container.put

    def counting_put(self, key, payload, *args, **kwargs):
        log.append((self.name, key))
        return put(self, key, payload, *args, **kwargs)

    monkeypatch.setattr(Container, "put", counting_put)
    return log


def keys_under(log, container, prefix=""):
    return [key for name, key in log
            if name == container and key.startswith(prefix)]


def test_recording_and_relaying_n_events_is_n_puts_each(puts):
    sim = Simulator()
    plane = DataPlane(sim, BlobStore(sim))
    for i in range(20):
        record(plane, "eden", f"p{i}", float(i))
    assert plane.relay.drain_once() == 20
    assert len(keys_under(puts, "dataplane-outbox")) == 20
    assert len(keys_under(puts, "dataplane-streams")) == 20
    assert keys_under(puts, "dataplane-coordination") == []


def test_a_drain_of_n_events_commits_the_cursor_once(puts):
    sim = Simulator()
    plane = DataPlane(sim, BlobStore(sim))
    for i in range(20):
        record(plane, "eden", f"p{i}", float(i))
    plane.relay.drain_once()
    del puts[:]
    consumer = plane.consumers[0]
    assert consumer.poll_once() == 20
    assert puts == [("dataplane-coordination", "claims/obs.eden"),
                    ("dataplane-coordination", "cursors/obs.eden")]
    assert consumer.committed_cursor("obs.eden") == 20
    # a poll with nothing new renews the claim and writes nothing else
    del puts[:]
    assert consumer.poll_once() == 0
    assert puts == [("dataplane-coordination", "claims/obs.eden")]


def test_a_failing_event_writes_its_count_and_parking_clears_it(puts):
    sim = Simulator()
    plane = DataPlane(sim, BlobStore(sim))
    plane.apply_hook = reject_poison
    record(plane, "eden", "p0", 1.0)
    record(plane, "eden", "poison-1", 2.0)
    record(plane, "eden", "p2", 3.0)
    plane.relay.drain_once()
    consumer = plane.consumers[0]
    coordination = plane.dlq._container
    del puts[:]
    # first delivery: p0 applied, the poison fails once, the drain stops
    assert consumer.poll_once() == 1
    assert keys_under(puts, "dataplane-coordination", "attempts/") == [
        "attempts/obs.eden/00000001"]
    assert keys_under(puts, "dataplane-coordination", "cursors/") == [
        "cursors/obs.eden"]
    assert consumer.committed_cursor("obs.eden") == 1
    # second delivery: the count goes up, the cursor stays
    del puts[:]
    assert consumer.poll_once() == 0
    assert keys_under(puts, "dataplane-coordination", "attempts/") == [
        "attempts/obs.eden/00000001"]
    assert keys_under(puts, "dataplane-coordination", "cursors/") == []
    assert coordination.read("attempts/obs.eden/00000001") == 2
    # the last delivery parks it, drains p2 and commits once
    del puts[:]
    assert consumer.poll_once() == 1
    assert keys_under(puts, "dataplane-coordination", "attempts/") == []
    assert keys_under(puts, "dataplane-coordination", "dlq/") == [
        "dlq/obs.eden/00000001"]
    assert keys_under(puts, "dataplane-coordination", "cursors/") == [
        "cursors/obs.eden"]
    assert coordination.list(prefix="attempts/") == []
    assert consumer.committed_cursor("obs.eden") == 3
    assert consumer.redelivered == MAX_ATTEMPTS - 1


def test_poison_attempts_carry_across_owners():
    """Two failed deliveries by one consumer, then a crash: the peer that
    takes the stream over delivers it once more and parks it."""
    sim = Simulator()
    plane = DataPlane(sim, BlobStore(sim), consumer_count=2)
    plane.apply_hook = reject_poison
    record(plane, "eden", "poison-0", 1.0)
    record(plane, "eden", "p1", 2.0)
    plane.relay.drain_once()
    first, second = plane.consumers
    for _ in range(MAX_ATTEMPTS - 1):
        assert first.poll_once() == 0
    first.crash()
    sim.run(until=sim.now + CLAIM_TTL + 1.0)
    assert second.poll_once() == 1
    [entry] = plane.dlq.entries()
    assert entry["attempts"] == MAX_ATTEMPTS
    assert (first.redelivered, second.redelivered) == (MAX_ATTEMPTS - 2, 1)
    assert plane.stats.stats("eden")["count"] == 1


# -- failover under any schedule ----------------------------------------------

#: records and polls are listed twice, so they are drawn twice as often
operations = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from(CATCHMENTS)),
    st.tuples(st.just("record"), st.sampled_from(CATCHMENTS)),
    st.tuples(st.just("poison"), st.sampled_from(CATCHMENTS)),
    st.tuples(st.just("relay")),
    st.tuples(st.just("poll"), st.integers(0, CONSUMERS - 1)),
    st.tuples(st.just("poll"), st.integers(0, CONSUMERS - 1)),
    st.tuples(st.just("crash"), st.integers(0, CONSUMERS - 1)),
    st.tuples(st.just("tick"), st.sampled_from((1.0, CLAIM_TTL + 1.0))),
    st.tuples(st.just("outage")),
    st.tuples(st.just("heal")),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_property_failover_applies_each_event_once_and_parks_poison(ops):
    sim = Simulator()
    store = BlobStore(sim)
    plane = DataPlane(sim, store, consumer_count=CONSUMERS)
    deliveries = Counter()
    owners = {}
    polling = [None]

    def hook(delivered):
        deliveries[delivered.key] += 1
        owners.setdefault(delivered.key, set()).add(polling[0])
        reject_poison(delivered)

    plane.apply_hook = hook
    recorded = {"healthy": [], "poison": []}
    dead = set()

    def poll(index):
        polling[0] = index
        try:
            plane.consumers[index].poll_once()
        except StorageUnavailable:
            pass        # the background loop rides an outage out the same way

    for op in ops:
        kind = op[0]
        if kind in ("record", "poison"):
            group = "healthy" if kind == "record" else "poison"
            procedure = f"{kind}-{sum(map(len, recorded.values()))}"
            try:
                record(plane, op[1], procedure, float(len(deliveries)))
            except StorageUnavailable:
                continue
            recorded[group].append(procedure)
        elif kind == "relay":
            try:
                plane.relay.drain_once()
            except StorageUnavailable:
                pass
        elif kind == "poll":
            if op[1] not in dead:
                poll(op[1])
        elif kind == "crash":
            plane.consumers[op[1]].crash()
            dead.add(op[1])
        elif kind == "tick":
            sim.run(until=sim.now + op[1])
        elif kind == "outage":
            store.set_fault("unavailable")
        else:
            store.clear_fault()

    # settle: heal, let dead claims lapse, restart everyone, drain
    store.clear_fault()
    sim.run(until=sim.now + CLAIM_TTL + 1.0)
    for _ in range(MAX_ATTEMPTS * (len(recorded["poison"]) + 2)):
        plane.relay.drain_once()
        for index in range(CONSUMERS):
            poll(index)
    assert plane.outbox.depth() == 0 and plane.lag() == 0

    # every healthy event applied exactly once, every poison one parked
    # after exactly MAX_ATTEMPTS deliveries
    assert {p: deliveries[p] for p in recorded["healthy"]} == \
        {p: 1 for p in recorded["healthy"]}
    assert {p: deliveries[p] for p in recorded["poison"]} == \
        {p: MAX_ATTEMPTS for p in recorded["poison"]}
    parked = plane.dlq.entries()
    assert sorted(e["event"]["key"] for e in parked) == \
        sorted(recorded["poison"])
    assert all(e["attempts"] == MAX_ATTEMPTS for e in parked)
    for procedure in recorded["poison"]:
        event(f"a poison event delivered by {len(owners[procedure])} "
              f"consumer(s)")
    assert sum(c.redelivered for c in plane.consumers) == \
        (MAX_ATTEMPTS - 1) * len(recorded["poison"])
    assert plane.dlq._container.list(prefix="attempts/") == []

    # the live views equal a fresh fold of the streams
    fresh = (CatchmentStatsView(), LatestObservationView())
    for name in plane.streams.names():
        for replayed in plane.streams.stream(name).replay():
            if not replayed.key.startswith("poison"):
                for view in fresh:
                    view.apply(replayed)
    assert [view_fingerprint(v) for v in (plane.stats, plane.latest)] == \
        [view_fingerprint(v) for v in fresh]
    assert plane.stats.duplicates == 0
