"""The event-sourced data plane: outbox, streams, consumers, views.

Covers the PR 8 pipeline end to end: transactional-outbox publication
with exactly-once stream appends, torn-tail truncation on reopen,
competing consumers with lease failover, poison events parked in the
DLQ without stalling the partition, and replay-based rebuild producing
bit-identical views — including the hypothesis property pinning the
incrementally maintained state against a full replay.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.storage import BlobStore
from repro.core import Evop, EvopConfig
from repro.data.sensors import SensorNetwork
from repro.data.warehouse import DataWarehouse
from repro.dataplane import (
    ClaimTable,
    ConsumerGroup,
    DataPlane,
    DeadLetterQueue,
    EventStream,
    OutboxRelay,
    StreamSet,
    TransactionalOutbox,
)
from repro.dataplane.events import Event
from repro.dataplane.views import (
    CatchmentStatsView,
    LatestObservationView,
    RunSummaryView,
    recompute_catchment_stats,
    view_fingerprint,
)
from repro.hydrology.timeseries import TimeSeries
from repro.obs.hub import obs_of
from repro.obs.telemetry import TelemetryPlane
from repro.services.sos import SensorDescription
from repro.sim import MetricsRegistry, Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def store(sim):
    return BlobStore(sim, name="dp-test")


@pytest.fixture()
def plane(sim, store):
    return DataPlane(sim, store, consumer_count=2)


def observe(plane, catchment, time, value, procedure=None):
    """Record one observation event through the outbox."""
    procedure = procedure or f"{catchment}-level-1"
    return plane.outbox.record(
        f"obs.{catchment}", "observation", key=procedure,
        payload={"procedure": procedure, "observedProperty": "river-level",
                 "time": time, "value": value, "uom": "m",
                 "catchment": catchment})


# -- outbox + relay -----------------------------------------------------------


def test_outbox_records_and_relay_publishes(plane):
    observe(plane, "eden", 0.0, 1.0)
    observe(plane, "eden", 900.0, 2.0)
    assert plane.outbox.depth() == 2
    moved = plane.relay.drain_once()
    assert moved == 2
    assert plane.outbox.depth() == 0
    stream = plane.streams.stream("obs.eden")
    assert stream.head == 2
    assert [e.payload["value"] for e in stream.read(0)] == [1.0, 2.0]


def test_relay_redelivery_deduped_by_token(plane):
    entry = plane.outbox.record("obs.eden", "observation", key="p",
                                payload={"time": 0.0, "value": 1.0})
    stream = plane.streams.stream("obs.eden")
    stream.append(entry.kind, key=entry.key, token=entry.token,
                  payload=entry.payload)
    # the relay "crashed" before mark_published: the entry drains again,
    # and the stream absorbs the duplicate by token
    assert plane.outbox.depth() == 1
    plane.relay.drain_once()
    assert stream.head == 1
    assert stream.deduplicated == 1


def test_outbox_sequence_resumes_past_pending(sim, store):
    container = store.create_container("ob-resume")
    first = TransactionalOutbox(sim, container)
    first.record("s", "a")
    first.record("s", "b")
    reopened = TransactionalOutbox(sim, container)
    entry = reopened.record("s", "c")
    assert entry.seq == 2
    assert [e.kind for e in reopened.pending()] == ["a", "b", "c"]


def test_outbox_rejects_non_json_payload(plane):
    with pytest.raises(ValueError):
        plane.outbox.record("s", "bad", payload={"fn": lambda: None})


def test_background_relay_and_consumers_drain(sim, store):
    plane = DataPlane(sim, store, consumer_count=2)
    plane.start()
    observe(plane, "eden", 0.0, 3.0)
    sim.run(until=sim.now + 5.0)
    assert plane.lag() == 0
    assert plane.stats.stats("eden")["count"] == 1
    plane.stop()


def test_restarted_outbox_never_recycles_a_published_sequence(sim, store):
    first = DataPlane(sim, store)
    for value in (1.0, 2.0, 3.0):
        observe(first, "eden", value * 900, value)
    first.pump()
    assert first.outbox.depth() == 0        # drained: the table is empty
    # a restart over the same store must not reissue outbox:0000000000...
    second = DataPlane(sim, store)
    entries = [observe(second, "eden", value * 900, value)
               for value in (4.0, 5.0, 6.0)]
    assert second.relay.drain_once() == 3
    stream = second.streams.stream("obs.eden")
    assert second.streams.total_events() == 6 and stream.deduplicated == 0
    assert [e.payload["value"] for e in stream.read()] == \
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert second.outbox.depth() == 0
    assert [entry.token for entry in entries] == \
        [f"outbox:{seq:010d}" for seq in (3, 4, 5)]


def test_restart_between_append_and_mark_still_deduplicates(sim, store):
    first = DataPlane(sim, store)
    observe(first, "eden", 0.0, 1.0)
    first.pump()
    crashed = observe(first, "eden", 900.0, 2.0)
    # the relay died after the stream append, before mark_published
    first.streams.stream("obs.eden").append(
        crashed.kind, key=crashed.key, token=crashed.token,
        payload=crashed.payload)
    second = DataPlane(sim, store)
    fresh = observe(second, "eden", 1800.0, 3.0)
    assert fresh.seq == crashed.seq + 1
    assert second.relay.drain_once() == 2   # the redelivery and the new one
    stream = second.streams.stream("obs.eden")
    assert stream.deduplicated == 1
    assert [e.payload["value"] for e in stream.read()] == [1.0, 2.0, 3.0]


def test_started_plane_rides_out_a_store_outage(sim, store):
    plane = DataPlane(sim, store, consumer_count=2)
    plane.start()
    observe(plane, "eden", 0.0, 1.0)
    sim.run(until=2.0)
    store.set_fault("unavailable")
    sim.run(until=5.0)                      # used to kill 'outbox-relay'
    stalled = [e for e in obs_of(sim).events.events()
               if e.kind.endswith(".stalled")]
    assert {(e.kind, e.fields.get("relay") or e.fields["consumer"])
            for e in stalled} == {
        ("dataplane.relay.stalled", "outbox-relay"),
        ("dataplane.consumer.stalled", "consumer-0"),
        ("dataplane.consumer.stalled", "consumer-1")}
    assert all("unavailable" in e.fields["cause"] for e in stalled)
    store.clear_fault()
    observe(plane, "eden", 900.0, 2.0)
    observe(plane, "morland", 900.0, 5.0)
    sim.run(until=8.0)
    assert plane.lag() == 0 and plane.outbox.depth() == 0
    assert plane.stats.stats("eden")["count"] == 2
    assert plane.stats.stats("morland")["count"] == 1
    # each event reached each view once
    assert [(v.applied, v.duplicates) for v in plane.views] == [(3, 0)] * 3
    assert sum(c.redelivered for c in plane.consumers) == 0
    plane.stop()


_json_payloads = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=8)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.tuples(inner, inner),
            st.dictionaries(st.one_of(st.text(max_size=4), st.integers()),
                            inner, max_size=3)),
        max_leaves=10),
    max_size=4)


@settings(max_examples=100, deadline=None)
@given(_json_payloads)
def test_relayed_record_text_equals_a_direct_append(payload):
    """One canonical form: what record -> relay writes to the stream is
    byte for byte what a direct, validated ``append`` writes."""
    sim = Simulator()
    store = BlobStore(sim)
    plane = DataPlane(sim, store)
    entry = plane.outbox.record("s", "k", key="p", payload=payload)
    pending = store.container("dataplane-outbox").read("pending/0000000000")
    plane.relay.drain_once()
    direct = EventStream(sim, store.create_container("direct"), "s")
    direct.append("k", key="p", token=entry.token, payload=payload)
    assert store.container("dataplane-streams").read("s/00000000") == \
        store.container("direct").read("s/00000000")
    [relayed], [appended] = plane.streams.stream("s").read(), direct.read()
    assert relayed == appended
    assert type(appended.payload) is dict
    # the pending document is the canonical form, stored as a plain dict
    assert pending["payload"] == relayed.payload
    assert type(pending["payload"]) is dict


# -- stream durability --------------------------------------------------------


def test_stream_reopen_sees_durable_events(sim, store):
    container = store.create_container("streams")
    stream = EventStream(sim, container, "obs.eden")
    stream.append("observation", key="p", payload={"time": 0.0, "value": 1.0})
    stream.append("observation", key="p", payload={"time": 1.0, "value": 2.0})
    reopened = EventStream(sim, container, "obs.eden")
    assert reopened.head == 2
    assert [e.payload["value"] for e in reopened.replay()] == [1.0, 2.0]


def test_stream_truncates_torn_tail_on_reopen(sim, store):
    container = store.create_container("streams")
    stream = EventStream(sim, container, "obs.eden")
    for i in range(4):
        stream.append("observation", key="p",
                      payload={"time": float(i), "value": float(i)})
    # tear the third record: a partial write the crash left behind
    container.put("obs.eden/00000002", "garbage not a journal record")
    reopened = EventStream(sim, container, "obs.eden")
    assert reopened.head == 2
    assert reopened.truncated_records == 2
    truncations = obs_of(sim).events.events("dataplane.stream.truncated")
    assert truncations and truncations[-1].fields["dropped"] == 2
    # the reopened stream appends cleanly where the good prefix ended
    reopened.append("observation", key="p", payload={"time": 9.0,
                                                     "value": 9.0})
    assert reopened.head == 3


def test_stream_names_reject_slash(sim, store):
    container = store.create_container("streams")
    with pytest.raises(ValueError):
        EventStream(sim, container, "obs/eden")


def test_streamset_rediscovers_partitions(sim, store):
    container = store.create_container("streams")
    streams = StreamSet(sim, container)
    streams.stream("obs.eden").append("observation", payload={"v": 1})
    streams.stream("runs").append("run.submitted", key="run-1")
    reopened = StreamSet(sim, container)
    assert reopened.names() == ["obs.eden", "runs"]
    assert reopened.total_events() == 2


# -- competing consumers ------------------------------------------------------


def test_consumers_split_streams_and_drain(plane):
    for i in range(5):
        observe(plane, "eden", i * 900.0, float(i))
        observe(plane, "kent", i * 900.0, float(i) * 2)
    plane.pump()
    assert plane.lag() == 0
    owners = {plane.claims.owner_of(name) for name in plane.streams.names()}
    assert owners <= {"consumer-0", "consumer-1"}
    assert plane.stats.stats("eden")["count"] == 5
    assert plane.stats.stats("kent")["count"] == 5


def test_claim_refuses_live_holder_and_takes_over_expired(sim, store):
    claims = ClaimTable(sim, store.create_container("claims"), ttl=30.0)
    epoch_a = claims.claim("s", "a")
    assert epoch_a == 1
    assert claims.claim("s", "b") is None
    sim.run(until=sim.now + 31.0)
    epoch_b = claims.claim("s", "b")
    assert epoch_b == 2
    # the fenced old holder can no longer renew or commit
    assert not claims.renew("s", "a", epoch_a)
    assert not claims.holds("s", "a", epoch_a)
    assert claims.holds("s", "b", epoch_b)


def test_claim_epochs_never_restart_across_release_and_expiry(sim, store):
    claims = ClaimTable(sim, store.create_container("claims"), ttl=30.0)
    first = claims.claim("s", "consumer-0")
    claims.release("s", "consumer-0")
    assert claims.owner_of("s") is None
    # a peer takes the released stream at once, above the old epoch
    taken = claims.claim("s", "consumer-1")
    assert taken > first
    claims.release("s", "consumer-1")
    # the restarted first consumer can never hold its dead incarnation's
    # (owner, epoch) pair again
    again = claims.claim("s", "consumer-0")
    assert again > taken
    assert not claims.holds("s", "consumer-0", first)
    sim.run(until=sim.now + 31.0)
    assert claims.owner_of("s") is None
    assert claims.claim("s", "consumer-1") > again


def test_consumer_crash_failover_resumes_at_committed_cursor(sim, store):
    plane = DataPlane(sim, store, consumer_count=2)
    for i in range(3):
        observe(plane, "eden", i * 900.0, float(i))
    plane.relay.drain_once()
    first, second = plane.consumers
    first.poll_once()
    assert first.delivered == 3
    # the holder dies without releasing; the peer must wait out the TTL
    first.crash()
    observe(plane, "eden", 4 * 900.0, 4.0)
    plane.relay.drain_once()
    assert second.poll_once() == 0
    sim.run(until=sim.now + 31.0)
    assert second.poll_once() == 1
    assert plane.claims.owner_of("obs.eden") == second.name
    # no event was lost or double-applied across the failover
    assert plane.stats.stats("eden")["count"] == 4
    assert plane.stats.duplicates == 0


def test_graceful_stop_releases_claims_immediately(sim, store):
    plane = DataPlane(sim, store, consumer_count=2)
    observe(plane, "eden", 0.0, 1.0)
    plane.relay.drain_once()
    first, second = plane.consumers
    first.poll_once()
    first.stop()
    observe(plane, "eden", 900.0, 2.0)
    plane.relay.drain_once()
    assert second.poll_once() == 1  # no TTL wait after a clean release


# -- poison events and the DLQ ------------------------------------------------


def test_poison_event_parks_in_dlq_without_stalling(plane):
    observe(plane, "eden", 0.0, 1.0)
    observe(plane, "eden", 900.0, float("nan"))   # the poison marker
    observe(plane, "eden", 1800.0, 3.0)

    def reject_nan(event):
        if math.isnan(event.payload.get("value", 0.0)):
            raise ValueError("nan observation")

    plane.apply_hook = reject_nan
    plane.pump()
    # the partition drained past the poison event
    assert plane.lag() == 0
    assert plane.dlq.depth() == 1
    entry = plane.dlq.entries()[0]
    assert entry["event"]["seq"] == 1
    assert entry["attempts"] == plane.consumers[0].max_attempts
    assert "nan" in entry["error"]
    # the healthy neighbours were applied exactly once
    assert plane.stats.stats("eden")["count"] == 2
    parked = obs_of(plane.sim).events.events("refused")
    assert parked and parked[-1].fields["stream"] == "obs.eden"
    assert parked[-1].fields["cause"] == "poison"


def test_dlq_redrive_after_fix(plane):
    observe(plane, "eden", 0.0, float("nan"))

    def reject_nan(event):
        if math.isnan(event.payload.get("value", 0.0)):
            raise ValueError("nan observation")

    plane.apply_hook = reject_nan
    plane.pump()
    assert plane.dlq.depth() == 1
    plane.apply_hook = None      # "the bug was fixed"
    drained = plane.dlq.redrive(plane._dispatch)
    assert drained == 1
    assert plane.dlq.depth() == 0
    assert plane.stats.stats("eden")["count"] == 1


def test_redrive_keeps_still_poison_events_parked(sim, store):
    dlq = DeadLetterQueue(sim, store.create_container("dlq"))
    from repro.dataplane import Event
    dlq.park(Event(stream="s", seq=0, time=0.0, kind="observation",
                   key="p", payload={"value": 1.0}), error="boom",
             attempts=3)

    def still_broken(event):
        raise RuntimeError("still broken")

    assert dlq.redrive(still_broken) == 0
    assert dlq.depth() == 1


# -- views --------------------------------------------------------------------


def test_latest_view_keeps_max_time_per_procedure(plane):
    observe(plane, "eden", 1800.0, 5.0, procedure="eden-level-1")
    observe(plane, "eden", 900.0, 4.0, procedure="eden-level-1")  # backfill
    observe(plane, "eden", 600.0, 9.0, procedure="eden-rain-1")
    plane.pump()
    latest = plane.latest.latest("eden-level-1")
    assert latest["time"] == 1800.0 and latest["value"] == 5.0
    rows = plane.latest.rows()
    assert [r["procedure"] for r in rows] == ["eden-level-1", "eden-rain-1"]


def test_stats_view_window_eviction_matches_recompute(plane):
    rows = []
    for i in range(200):
        t = i * 1800.0           # 100 hours of data, 24 h window
        v = 2.0 + math.sin(0.37 * i)
        observe(plane, "eden", t, v)
        rows.append({"time": t, "value": v})
    plane.pump()
    stats = plane.stats.stats("eden")
    assert stats == recompute_catchment_stats("eden", rows,
                                              plane.stats.window_hours)
    assert stats["count"] < 200  # eviction actually happened


def test_view_dedup_under_redelivery(plane):
    observe(plane, "eden", 0.0, 1.0)
    plane.pump()
    event = plane.streams.stream("obs.eden").read(0)[0]
    assert not plane.stats.apply(event)
    assert plane.stats.duplicates == 1
    assert plane.stats.stats("eden")["count"] == 1


def test_rebuild_is_bit_identical_even_with_poison(plane):
    def reject_nan(event):
        value = event.payload.get("value", 0.0)
        if isinstance(value, float) and math.isnan(value):
            raise ValueError("nan observation")

    plane.apply_hook = reject_nan
    for i in range(30):
        value = float("nan") if i % 11 == 5 else 2.0 + math.sin(0.7 * i)
        observe(plane, "eden", i * 1800.0, value)
    plane.pump()
    live = view_fingerprint(plane.stats)
    live_doc = plane.stats.stats("eden")
    rebuilt = plane.rebuild(plane.stats)
    assert rebuilt == live
    assert plane.stats.stats("eden") == live_doc
    # the latest view rebuilds identically too
    latest_before = view_fingerprint(plane.latest)
    assert plane.rebuild(plane.latest) == latest_before


def test_run_summary_view_tracks_lifecycle(plane):
    plane.outbox.record("runs", "run.submitted", key="run-1",
                        payload={"process": "topmodel", "submittedAt": 0.0})
    plane.outbox.record("runs", "run.finished", key="run-1",
                        payload={"finishedAt": 9.0, "peak_mm_h": 4.2})
    plane.outbox.record("runs", "run.submitted", key="run-2",
                        payload={"process": "fuse", "submittedAt": 5.0})
    plane.pump()
    done = plane.runs.run("run-1")
    assert done["status"] == "finished"
    assert done["peak_mm_h"] == 4.2
    assert [r["runId"] for r in plane.runs.rows()] == ["run-1", "run-2"]
    assert plane.runs.run("run-2")["status"] == "submitted"


def test_views_serve_the_materialized_document_until_it_changes(plane):
    observe(plane, "eden", 0.0, 1.0)
    plane.outbox.record("runs", "run.submitted", key="run-1",
                        payload={"process": "topmodel"})
    plane.pump()
    stats, latest, runs = (plane.stats.stats("eden"), plane.latest.rows(),
                           plane.runs.rows())
    # no rebuild per read: the same document object every time
    assert plane.stats.stats("eden") is stats
    assert plane.latest.rows() is latest
    assert plane.runs.rows() is runs
    fingerprints = [view_fingerprint(view) for view in plane.views]
    # a change replaces the document; what was handed out is untouched
    observe(plane, "eden", 900.0, 3.0)
    plane.outbox.record("runs", "run.finished", key="run-1",
                        payload={"finishedAt": 9.0})
    plane.pump()
    assert plane.stats.stats("eden") is not stats
    assert (stats["count"], plane.stats.stats("eden")["count"]) == (1, 2)
    assert latest[0]["time"] == 0.0
    assert plane.latest.rows()[0]["time"] == 900.0
    assert runs[0]["status"] == "submitted"
    assert plane.runs.rows()[0]["status"] == "finished"
    assert [view_fingerprint(view) for view in plane.views] != fingerprints
    # an untouched catchment keeps its document across another's change
    observe(plane, "kent", 0.0, 5.0)
    plane.pump()
    eden = plane.stats.stats("eden")
    observe(plane, "kent", 900.0, 6.0)
    plane.pump()
    assert plane.stats.stats("eden") is eden


run_events = st.lists(
    st.tuples(st.integers(0, 5),
              st.sampled_from(["run.submitted", "run.finished", "run.failed",
                               "series.put"]),
              st.floats(0.0, 50.0), st.booleans()),
    max_size=40)


@settings(max_examples=60, deadline=None)
@given(run_events)
def test_run_rows_kept_incrementally_equal_a_rebuild(script):
    """Rows maintained one event at a time, read at arbitrary points,
    are the rows a from-scratch copy of every run gives."""
    events = [Event("runs", seq, float(seq), kind, key=f"run-{run}",
                    payload={"process": "topmodel", "peak_mm_h": peak})
              for seq, (run, kind, peak, _) in enumerate(script)]
    view = RunSummaryView()
    handed_out = []
    for event, (_, _, _, read_now) in zip(events, script):
        view.apply(event)
        if read_now:
            rows = view.rows()
            handed_out.append((rows, [dict(row) for row in rows]))
    order = list(dict.fromkeys(
        event.key for event in events if event.kind.startswith("run.")))
    assert view.rows() == [dict(view.run(run_id)) for run_id in order]
    assert view.rows() is view.rows()
    # no row is the view's own entry, and nothing handed out ever moved
    assert not any(row is view.run(row["runId"]) for row in view.rows())
    assert all(rows == snapshot for rows, snapshot in handed_out)
    replayed = RunSummaryView()
    for event in events:
        replayed.apply(event)
    assert view_fingerprint(replayed) == view_fingerprint(view)


def test_view_reset_drops_the_materialized_documents(plane):
    observe(plane, "eden", 0.0, 1.0)
    plane.outbox.record("runs", "run.submitted", key="run-1", payload={})
    plane.pump()
    for view in plane.views:
        view_fingerprint(view)      # materialize
        view.reset()
    assert plane.stats.stats("eden") is None
    assert plane.latest.rows() == [] and plane.runs.rows() == []
    for view in plane.views:
        plane.rebuild(view)
    assert plane.stats.stats("eden")["count"] == 1
    assert len(plane.latest.rows()) == 1 and len(plane.runs.rows()) == 1


# -- producers ----------------------------------------------------------------


def test_warehouse_writes_publish_events(sim, store, plane):
    warehouse = DataWarehouse(store)
    warehouse.attach_outbox(plane.outbox)
    warehouse.put_series("eden/rainfall",
                         TimeSeries(0.0, 1.0, [1.0, 2.0], units="mm/h"),
                         provenance="test")
    warehouse.delete("eden/rainfall")
    plane.pump()
    events = plane.streams.stream("warehouse").read(0)
    assert [e.kind for e in events] == ["series.put", "series.deleted"]
    assert events[0].key == "eden/rainfall"
    assert events[0].payload["samples"] == 2


def test_sensor_live_and_backfill_publish_in_time_order(sim, plane):
    network = SensorNetwork(sim)
    network.attach_outbox(plane.outbox)
    sensor = network.add_sensor(
        SensorDescription(procedure_id="eden-level-1",
                          observed_property="river-level",
                          units="m", latitude=54.6, longitude=-2.6,
                          catchment="eden"),
        truth=lambda t: 1.0 + t / 1000.0)
    sensor.observe_now()
    sim.run(until=3600.0)
    sensor.observe_now()
    sensor.backfill(TimeSeries(0.0, 900.0, [0.1, 0.2], units="m"))
    plane.pump()
    stream = plane.streams.stream("obs.eden")
    assert stream.head == 4
    backfilled = [e.payload["time"] for e in stream.read(2)]
    assert backfilled == sorted(backfilled)
    # the latest view never regresses to the backfilled past
    assert plane.latest.latest("eden-level-1")["time"] == 3600.0


# -- health + telemetry -------------------------------------------------------


def test_instrumented_plane_is_scraped(sim, plane):
    registry = MetricsRegistry(sim, namespace="dataplane")
    plane.instrument(registry)
    observe(plane, "eden", 0.0, 1.0)
    assert registry.snapshot()["dataplane.outbox.depth"] == 1.0
    plane.relay.drain_once()
    assert registry.snapshot()["dataplane.consumer.lag"] == 1.0
    plane.pump()
    assert registry.snapshot()["dataplane.consumer.lag"] == 0.0
    assert registry.snapshot()["dataplane.stream.events"] == 1.0

    telemetry = TelemetryPlane(sim, interval=5.0)
    telemetry.watch_registry(registry, service="dataplane")
    telemetry.start()
    sim.run(until=sim.now + 12.0)
    names = {series.name for series in telemetry.store.all_series()}
    assert "dataplane.consumer.lag" in names
    assert "dataplane.dlq.depth" in names


def test_snapshot_shape(plane):
    observe(plane, "eden", 0.0, 1.0)
    plane.pump()
    snap = plane.snapshot()
    assert snap["streams"] == {"obs.eden": 1}
    assert snap["lag"] == 0 and snap["dlqDepth"] == 0
    assert snap["views"]["stats"]["applied"] == 1


# -- the hypothesis property: incremental view == full replay -----------------


observation_rows = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=400.0),
              st.floats(min_value=-100.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60)


@settings(max_examples=25, deadline=None)
@given(observation_rows)
def test_property_incremental_state_equals_full_replay(rows):
    """Whatever arrives, the live views equal a from-scratch replay."""
    sim = Simulator()
    store = BlobStore(sim, name="dp-prop")
    plane = DataPlane(sim, store, consumer_count=2)
    rows = sorted(rows, key=lambda r: r[0])   # event-time-ordered ingest
    for hour, value in rows:
        observe(plane, "eden", hour * 3600.0, value)
    plane.pump()
    live_stats = view_fingerprint(plane.stats)
    live_latest = view_fingerprint(plane.latest)

    replica = CatchmentStatsView(window_hours=plane.stats.window_hours)
    latest_replica = LatestObservationView()
    for name in plane.streams.names():
        for event in plane.streams.stream(name).replay():
            replica.apply(event)
            latest_replica.apply(event)
    assert view_fingerprint(replica) == live_stats
    assert view_fingerprint(latest_replica) == live_latest
    # and the stats document equals the raw-row recompute, bit for bit
    raw = [{"time": t * 3600.0, "value": v} for t, v in rows]
    assert plane.stats.stats("eden") == recompute_catchment_stats(
        "eden", raw, plane.stats.window_hours)


# -- Evop integration ---------------------------------------------------------


def test_evop_enable_dataplane_wires_producers_and_read_service():
    evop = Evop(EvopConfig(telemetry_interval=None)).bootstrap()
    plane = evop.enable_dataplane()
    assert evop.enable_dataplane() is plane   # idempotent
    service = evop.expose_read_api()
    assert service == "read"
    evop.run_for(900.0)
    evop.left().sensors.start_all_feeds(until=evop.sim.now + 3600.0)
    evop.run_for(3600.0)
    plane.pump()
    assert plane.lag() == 0
    catchment = evop.config.catchments[0]
    stats = plane.stats.stats(catchment)
    assert stats is not None and stats["count"] > 0
    assert plane.latest.rows()
    # warehouse writes after wiring publish too
    evop.warehouse.put_series(
        f"{catchment}/qc", TimeSeries(0.0, 1.0, [1.0]), provenance="qc")
    plane.pump()
    assert plane.streams.stream("warehouse").head == 1
