"""Competing consumers: lease-claimed streams, redelivery, dead letters.

Several consumer instances share the work of applying streams to the
materialized views.  A consumer *claims* a stream under the estate's one
lease rule (:func:`~repro.durable.journal.take_lease` and friends — the
rule run journals and the leader election follow): the
:class:`ClaimTable` keeps one lease blob per stream, a dead consumer's
claim lapses, and the peer that takes over holds a higher epoch, which
fences any late cursor commit from the previous holder.

Delivery is at-least-once, and the views deduplicate by ``(stream,
seq)``, making the apply idempotent.

A *poison* event (one whose apply raises, deterministically) must not
stall the partition: after ``MAX_ATTEMPTS`` deliveries it is parked in
the :class:`DeadLetterQueue` and the cursor advances past it.  Parked
events stay durable and inspectable (:meth:`DeadLetterQueue.entries`).

A drain applies every event past the committed cursor inside one
simulator step, so no crash, takeover or store fault lands inside it,
and commits the cursor once for the batch, fenced.  A failure stops the
drain, so only the event at the committed cursor can carry a count of
failed deliveries (``attempts/<stream>/<seq>``): it is read once per
drain and written only when an apply raises.  It is a blob, so a new
owner goes on counting where a crashed one stopped.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cloud.errors import StorageUnavailable
from repro.cloud.storage import Container
from repro.dataplane.events import Event
from repro.dataplane.outbox import POLL_INTERVAL
from repro.dataplane.stream import StreamSet
from repro.durable.journal import (LeaseState, drop_lease, extend_lease,
                                   take_lease)
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.sim import Simulator

#: Deliveries before an event is declared poison and parked.
MAX_ATTEMPTS = 3

#: How long a stream claim lives without renewal.
CLAIM_TTL = 30.0


class ClaimTable:
    """Durable per-stream leases: one blob each, the shared lease rule."""

    def __init__(self, sim: Simulator, container: Container):
        self.sim = sim
        self._container = container

    def _read(self, stream: str) -> Optional[LeaseState]:
        payload = self._container.read(f"claims/{stream}")
        return None if payload is None else LeaseState.from_payload(payload)

    def _write(self, stream: str, lease: Optional[LeaseState]) -> bool:
        """Store what the rule granted; ``False`` when it refused."""
        if lease is None:
            return False
        self._container.put(f"claims/{stream}", lease.payload())
        return True

    def claim(self, stream: str, owner: str) -> Optional[int]:
        """Try to claim ``stream``; returns the epoch held, or ``None``.

        A live claim by another owner refuses; a change of owner bumps
        the epoch (fencing the old holder's late commits).
        """
        lease = take_lease(self._read(stream), owner, self.sim.now, CLAIM_TTL)
        return lease.epoch if self._write(stream, lease) else None

    def renew(self, stream: str, owner: str, epoch: int) -> bool:
        """Extend a held claim; ``False`` if it was lost (fenced)."""
        current = self._read(stream)
        if current is None or current.epoch != epoch:
            return False
        return self._write(stream, extend_lease(current, owner, self.sim.now,
                                                CLAIM_TTL))

    def holds(self, stream: str, owner: str, epoch: int) -> bool:
        """Whether ``owner`` still holds ``stream`` at ``epoch``."""
        current = self._read(stream)
        return (current is not None and current.owner == owner
                and current.epoch == epoch
                and current.held_at(self.sim.now))

    def release(self, stream: str, owner: str) -> None:
        """Give a claim up so peers can take the stream immediately; the
        blob stays, so the stream's epoch never restarts."""
        self._write(stream, drop_lease(self._read(stream), owner,
                                       self.sim.now))


class DeadLetterQueue:
    """Durable parking lot for poison events."""

    def __init__(self, sim: Simulator, container: Container):
        self.sim = sim
        self._container = container

    def park(self, event: Event, error: str, attempts: int) -> None:
        """Park a poison event (a ``poison`` refusal), keeping its context."""
        key = f"dlq/{event.stream}/{event.seq:08d}"
        self._container.put(key, {
            "event": event.to_document(),
            "error": error,
            "attempts": attempts,
            "parked_at": self.sim.now,
        })
        refuse(self.sim, Cause.POISON, stream=event.stream, seq=event.seq,
               event_kind=event.kind, error=error, attempts=attempts)

    def depth(self) -> int:
        """How many events are parked."""
        return len(self._container.list(prefix="dlq/"))

    def entries(self) -> List[Dict[str, Any]]:
        """Every parked entry, oldest key first."""
        return [self._container.get(k).payload
                for k in self._container.list(prefix="dlq/")]


class ConsumerGroup:
    """One consumer instance of the competing group.

    Every instance shares the claim table, cursor blobs and DLQ through
    the plane's container; ``poll_once`` claims whatever streams are
    free and drains them, so running several instances splits the
    partitions without any further coordination.
    """

    def __init__(self, sim: Simulator, name: str, streams: StreamSet,
                 claims: ClaimTable, dlq: DeadLetterQueue,
                 container: Container,
                 apply: Callable[[Event], None]):
        self.sim = sim
        self.name = name
        self.streams = streams
        self.claims = claims
        self.dlq = dlq
        self.apply = apply
        self._container = container
        self._epochs: Dict[str, int] = {}
        self.delivered = 0
        self.redelivered = 0
        self._stopped = False

    # -- durable cursors & attempt counts ------------------------------------

    def _cursor_key(self, stream: str) -> str:
        return f"cursors/{stream}"

    def committed_cursor(self, stream: str) -> int:
        """The first sequence not yet durably applied for ``stream``."""
        return self._container.read(self._cursor_key(stream), 0)

    def _commit_cursor(self, stream: str, seq: int, epoch: int) -> None:
        # Fenced commit: a holder that lost its claim must not move the
        # cursor under the new holder's feet.
        if not self.claims.holds(stream, self.name, epoch):
            return
        self._container.put(self._cursor_key(stream), seq)

    def _attempts_key(self, stream: str, seq: int) -> str:
        return f"attempts/{stream}/{seq:08d}"

    # -- the drain loop ------------------------------------------------------

    def poll_once(self) -> int:
        """Claim free streams and drain them; returns events applied."""
        applied = 0
        for stream_name in self.streams.names():
            epoch = self._epochs.get(stream_name)
            if epoch is None or not self.claims.renew(
                    stream_name, self.name, epoch):
                epoch = self.claims.claim(stream_name, self.name)
                if epoch is None:
                    self._epochs.pop(stream_name, None)
                    continue
                self._epochs[stream_name] = epoch
            applied += self._drain_stream(stream_name, epoch)
        return applied

    def _drain_stream(self, stream_name: str, epoch: int) -> int:
        stream = self.streams.stream(stream_name)
        start = cursor = self.committed_cursor(stream_name)
        events = stream.read(from_seq=cursor)
        if not events:
            return 0
        # Only the event at the committed cursor can carry failed
        # deliveries: a failure stops the drain there.
        failed = self._container.read(
            self._attempts_key(stream_name, cursor), 0)
        applied = 0
        for event in events:
            attempts = failed + 1
            if failed:
                self.redelivered += 1
            try:
                self.apply(event)
            except Exception as exc:  # noqa: BLE001 - poison isolation
                if attempts < MAX_ATTEMPTS:
                    # Leave the cursor here; the event redelivers on the
                    # next poll (ours or a peer's after failover).
                    self._container.put(
                        self._attempts_key(stream_name, event.seq), attempts)
                    break
                # Park and advance past the poison event: the partition
                # must not stall behind one bad record.
                self.dlq.park(event, error=repr(exc), attempts=attempts)
            else:
                self.delivered += 1
                applied += 1
            if failed:
                self._container.discard(
                    self._attempts_key(stream_name, event.seq))
                failed = 0
            cursor = event.seq + 1
        if cursor != start:
            self._commit_cursor(stream_name, cursor, epoch)
        return applied

    def lag(self) -> int:
        """Undelivered events across all streams (consumer lag)."""
        return sum(
            max(0, self.streams.stream(name).head
                - self.committed_cursor(name))
            for name in self.streams.names())

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the background poll loop."""
        self._stopped = False
        self.sim.spawn(self._run(), name=f"consumer-{self.name}")

    def stop(self) -> None:
        """Stop polling and release held claims (graceful shutdown)."""
        self._stopped = True
        for stream_name in list(self._epochs):
            self.claims.release(stream_name, self.name)
            self._epochs.pop(stream_name, None)

    def crash(self) -> None:
        """Stop polling *without* releasing claims (failure injection):
        peers must wait out the claim TTL before taking over."""
        self._stopped = True
        self._epochs.clear()

    def _run(self):
        events = obs_of(self.sim).events
        while not self._stopped:
            try:
                self.poll_once()
            except StorageUnavailable as exc:
                # ride the outage out: claims and cursors are durable
                events.emit("dataplane.consumer.stalled",
                            consumer=self.name, cause=str(exc))
            yield POLL_INTERVAL
