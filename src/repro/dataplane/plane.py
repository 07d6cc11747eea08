"""The data-plane facade: containers, wiring, lifecycle, rebuild.

One :class:`DataPlane` owns the whole event-sourced pipeline for a
deployment: the transactional outbox writers record into, the durable
event streams, the competing consumer group, the dead-letter queue, and
the materialized views the read API serves.  ``pump()`` drains the
pipeline synchronously (deterministic tests and benchmarks);
``start()`` spawns the background relay and consumer loops instead;
``instrument(registry)`` publishes its saturation signals as callback
gauges, which is all the telemetry plane needs to scrape it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.storage import BlobStore
from repro.dataplane.consumers import ClaimTable, ConsumerGroup, DeadLetterQueue
from repro.dataplane.events import Event
from repro.dataplane.outbox import OutboxRelay, TransactionalOutbox
from repro.dataplane.stream import StreamSet
from repro.dataplane.views import (
    CatchmentStatsView,
    LatestObservationView,
    MaterializedView,
    RunSummaryView,
    view_fingerprint,
)
from repro.sim import MetricsRegistry, Simulator


class DataPlane:
    """Outbox → streams → consumers → views, wired and rebuildable."""

    def __init__(self, sim: Simulator, store: BlobStore,
                 prefix: str = "dataplane",
                 consumer_count: int = 2):
        self.sim = sim
        self.outbox = TransactionalOutbox(
            sim, store.create_container(f"{prefix}-outbox"))
        self.streams = StreamSet(
            sim, store.create_container(f"{prefix}-streams"))
        self.outbox.resume_past(self.streams.tokens())
        coordination = store.create_container(f"{prefix}-coordination")
        self.claims = ClaimTable(sim, coordination)
        self.dlq = DeadLetterQueue(sim, coordination)
        self.relay = OutboxRelay(sim, self.outbox, self.streams)

        self.stats = CatchmentStatsView()
        self.latest = LatestObservationView()
        self.runs = RunSummaryView()
        self.views: Tuple[MaterializedView, ...] = (
            self.stats, self.latest, self.runs)

        self.consumers: List[ConsumerGroup] = [
            ConsumerGroup(sim, f"consumer-{i}", self.streams, self.claims,
                          self.dlq, coordination, self._dispatch)
            for i in range(consumer_count)]
        #: Optional hook tests use to inject poison behaviour: called
        #: with each event before the views see it; raising marks the
        #: event poison.
        self.apply_hook: Optional[Callable[[Event], None]] = None

    # -- the single apply path ----------------------------------------------

    def _dispatch(self, event: Event) -> None:
        """Apply one delivered event to every view (the consumer target)."""
        if self.apply_hook is not None:
            self.apply_hook(event)
        for view in self.views:
            view.apply(event)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the relay and all consumer loops."""
        self.relay.start()
        for consumer in self.consumers:
            consumer.start()

    def stop(self) -> None:
        self.relay.stop()
        for consumer in self.consumers:
            consumer.stop()

    def pump(self, rounds: int = 10) -> int:
        """Drain outbox → streams → views synchronously.

        Runs relay and consumer passes until a quiet round (or the
        round budget runs out, e.g. while events keep failing on their
        way to the DLQ).  Returns the number of events applied.
        """
        applied = 0
        for _ in range(rounds):
            moved = self.relay.drain_once()
            delivered = sum(c.poll_once() for c in self.consumers)
            applied += delivered
            if not moved and not delivered and self.lag() == 0:
                break
        return applied

    # -- health --------------------------------------------------------------

    def lag(self) -> int:
        """Published-but-unapplied events across all streams."""
        if not self.consumers:
            return self.streams.total_events()
        return self.consumers[0].lag()

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register the plane's saturation signals on ``registry`` as
        callback gauges — consumer lag, DLQ depth, outbox depth, total
        stream events: whether the views are keeping up with ingest and
        whether poison events are accumulating."""
        registry.callback_gauge("dataplane.consumer.lag", self.lag)
        registry.callback_gauge("dataplane.dlq.depth", self.dlq.depth)
        registry.callback_gauge("dataplane.outbox.depth", self.outbox.depth)
        registry.callback_gauge("dataplane.stream.events",
                                self.streams.total_events)

    def snapshot(self) -> Dict[str, Any]:
        """An admin/debug rendering of pipeline health."""
        return {
            "streams": {name: self.streams.stream(name).head
                        for name in self.streams.names()},
            "outboxDepth": self.outbox.depth(),
            "published": self.relay.published,
            "lag": self.lag(),
            "dlqDepth": self.dlq.depth(),
            "views": {view.name: {"revision": view.revision,
                                  "applied": view.applied,
                                  "duplicates": view.duplicates}
                      for view in self.views},
        }

    # -- rebuild (replay for backfill) ---------------------------------------

    def rebuild(self, view: MaterializedView) -> str:
        """Rebuild a (possibly dropped) view from full stream replay.

        Events whose apply raises are skipped — exactly mirroring the
        DLQ path the live pipeline takes — so a rebuilt view matches
        the incrementally-maintained one bit for bit even when poison
        events exist.  Returns the rebuilt view's fingerprint.
        """
        view.reset()
        for name in self.streams.names():
            for event in self.streams.stream(name).replay():
                try:
                    if self.apply_hook is not None:
                        self.apply_hook(event)
                except Exception:  # noqa: BLE001 - mirrors DLQ skip
                    continue
                view.apply(event)
        return view_fingerprint(view)
