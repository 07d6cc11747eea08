"""Transactional outbox: write-plus-publish without dual-write races.

A writer (the warehouse, a sensor network, the WPS) must both update
its own state and announce the change.  Doing those as two independent
durable writes loses events when the process dies between them; the
outbox pattern instead records the event *next to* the data write —
in the simulator both happen in the same cooperative step, so they are
atomic — and a separate :class:`OutboxRelay` publishes pending entries
to the event streams, marking each only after the stream append is
durable.

The relay can die between append and mark: the entry is then drained
again, so publication is at-least-once.  Each entry carries its outbox
sequence as a dedup token, which :meth:`EventStream.append
<repro.dataplane.stream.EventStream.append>` absorbs — making the
outbox → stream hop effectively exactly-once, as long as a sequence is
never issued twice: a restarted outbox resumes past its pending tail
*and* past every token the streams hold (``resume_past``).

A payload is made canonical once, at ``record``; what the relay reads
back from ``pending/`` reaches the stream as a :class:`~repro.dataplane.
events.CanonicalPayload`, which ``append`` takes as is.  A store outage
does not kill the relay loop: it skips the tick and resumes on heal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.cloud.errors import StorageUnavailable
from repro.cloud.storage import Container
from repro.dataplane.events import CanonicalPayload
from repro.durable.journal import jsonable
from repro.obs.hub import obs_of
from repro.sim import Simulator


#: What an outbox dedup token starts with; the sequence follows.
TOKEN_PREFIX = "outbox:"

#: Seconds a background relay or consumer loop sleeps between passes.
POLL_INTERVAL = 0.5


@dataclass(frozen=True)
class OutboxEntry:
    """One pending publication: which stream, what event."""

    seq: int
    time: float
    stream: str
    kind: str
    key: str
    payload: Dict[str, Any]

    @property
    def token(self) -> str:
        """The stream-side dedup token for this entry."""
        return f"{TOKEN_PREFIX}{self.seq:010d}"

    def to_document(self) -> Dict[str, Any]:
        return {"seq": self.seq, "time": self.time, "stream": self.stream,
                "kind": self.kind, "key": self.key,
                "payload": dict(self.payload)}

    @classmethod
    def from_document(cls, doc: Dict[str, Any]) -> "OutboxEntry":
        # a pending document holds what ``record`` made canonical
        return cls(seq=doc["seq"], time=doc["time"], stream=doc["stream"],
                   kind=doc["kind"], key=doc["key"],
                   payload=CanonicalPayload(doc["payload"]))


class TransactionalOutbox:
    """The durable pending-event table writers record into."""

    def __init__(self, sim: Simulator, container: Container):
        self.sim = sim
        self._container = container
        self.recorded = 0
        # Resume the sequence past whatever a predecessor left pending.
        keys = container.list(prefix="pending/")
        self._next_seq = (
            int(keys[-1].rsplit("/", 1)[1]) + 1 if keys else 0)

    def resume_past(self, published: Iterable[str]) -> None:
        """Never reissue a sequence whose token a stream already holds: a
        drained table remembers nothing, and a recycled token makes the
        streams drop the new event as a duplicate of the old one."""
        for token in published:
            if token.startswith(TOKEN_PREFIX):
                self._next_seq = max(
                    self._next_seq, int(token[len(TOKEN_PREFIX):]) + 1)

    @staticmethod
    def _key(seq: int) -> str:
        return f"pending/{seq:010d}"

    def record(self, stream: str, kind: str, key: str = "",
               payload: Optional[Dict[str, Any]] = None) -> OutboxEntry:
        """Record one event for publication (the writer-side half)."""
        ok, canonical = jsonable(dict(payload or {}))
        if not ok:
            raise ValueError(
                f"outbox event {kind!r} for stream {stream!r} has a "
                f"non-JSON payload")
        entry = OutboxEntry(seq=self._next_seq, time=self.sim.now,
                            stream=stream, kind=kind, key=key,
                            payload=canonical)
        self._next_seq += 1
        self._container.put(self._key(entry.seq), entry.to_document())
        self.recorded += 1
        return entry

    def pending(self) -> List[OutboxEntry]:
        """Entries recorded but not yet marked published, oldest first."""
        documents = (self._container.read(key)
                     for key in self._container.list(prefix="pending/"))
        return [OutboxEntry.from_document(doc) for doc in documents
                if doc is not None]  # None: marked published meanwhile

    def mark_published(self, entry: OutboxEntry) -> None:
        """Drop a pending entry once its stream append is durable."""
        self._container.discard(self._key(entry.seq))

    def depth(self) -> int:
        """How many entries await publication."""
        return len(self._container.list(prefix="pending/"))


class OutboxRelay:
    """Drains one outbox into a :class:`~repro.dataplane.stream.StreamSet`.

    ``drain_once`` is also callable directly (and synchronously) — the
    plane's ``pump`` uses that for deterministic benchmarks, while
    ``start`` spawns the background polling loop for end-to-end runs.
    """

    def __init__(self, sim: Simulator, outbox: TransactionalOutbox,
                 streams):
        self.sim = sim
        self.outbox = outbox
        self.streams = streams
        self.published = 0
        self._stopped = False

    def drain_once(self) -> int:
        """Publish every pending entry; returns how many moved."""
        moved = 0
        for entry in self.outbox.pending():
            stream = self.streams.stream(entry.stream)
            stream.append(entry.kind, key=entry.key, token=entry.token,
                          payload=entry.payload)
            # Mark only after the append is durable; a crash before this
            # line redelivers, and the token dedups on the stream side.
            self.outbox.mark_published(entry)
            self.published += 1
            moved += 1
        return moved

    def start(self) -> None:
        """Spawn the background drain loop."""
        self._stopped = False
        self.sim.spawn(self._run(), name="outbox-relay")

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        events = obs_of(self.sim).events
        events.emit("dataplane.relay.started")
        while not self._stopped:
            try:
                self.drain_once()
            except StorageUnavailable as exc:
                # ride the outage out: the pending table is durable
                events.emit("dataplane.relay.stalled",
                            relay="outbox-relay", cause=str(exc))
            yield POLL_INTERVAL
