"""The durable substrate: one record log, one lease rule, the run journal.

Everything that must outlive the replica that wrote it stands on two
primitives defined here and nowhere else:

* **the record log** (:class:`RecordLog`) — one blob per record in a
  :class:`~repro.cloud.storage.BlobStore` container, keyed
  ``<name>/<seq:08d>``, each the CRC-checked text of a
  :class:`JournalRecord`.  Opening truncates the torn tail (the first
  record that fails its CRC or breaks the sequence goes, with everything
  after it), so whatever the fault injector does to storage — outages,
  torn writes — a reopen reads exactly what was made durable.
* **the lease rule** (:func:`take_lease`, :func:`extend_lease`,
  :func:`drop_lease` over :class:`LeaseState`) — a live lease refuses
  every other owner; a change of owner bumps the epoch, which starts at
  1 and never goes down; giving up is "expires now", so the record and
  its epoch survive the release.

Carriers: :class:`RunJournal` (log + lease, below),
:class:`~repro.dataplane.stream.EventStream` (log), and the leases of
:class:`~repro.dataplane.consumers.ClaimTable`,
:class:`~repro.services.idempotency.IdempotencyIndex` and, through its
journals, :class:`~repro.geo.election.LeaderElection`.  The run journal adds:

* **fsync points** — ``append(..., sync=False)`` buffers in executor
  memory; only ``sync()`` makes records durable.  An executor crash
  (:meth:`RunJournal.crash`) loses the unsynced tail, and may leave the
  first in-flight record *torn* (partially written).
* **fencing** — ``sync()`` refuses to append over records a new owner
  wrote (:class:`Fenced`), so a healed-from-blackhole executor can never
  scribble on a run that was re-adopted while it was dark.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.storage import BlobStore, Container
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.perf.keys import CANONICAL
from repro.sim import Simulator

# -- record kinds -----------------------------------------------------------

#: A run was submitted: workflow name + parameters (write-ahead).
SCHEDULED = "SCHEDULED"
#: An executor began (or re-began) executing the run.
STARTED = "STARTED"
#: A recovery executor took over an orphaned run.
ADOPTED = "ADOPTED"
#: Progress made durable: a completed stage or an ensemble checkpoint.
CHECKPOINT = "CHECKPOINT"
#: An externally visible effect was applied (dedup key inside).
EFFECT = "EFFECT"
#: Ownership: who may execute this run, until when, at which epoch.
LEASE = "LEASE"
#: Terminal success / terminal failure.
DONE = "DONE"
FAILED = "FAILED"
#: A data-plane stream event (see :mod:`repro.dataplane.stream`): the
#: event-sourced ingest path reuses the journal's CRC-checked record
#: format and torn-tail truncation, with the stream name in the
#: ``run_id`` slot and one durable blob per event.
EVENT = "EVENT"

KINDS = (SCHEDULED, STARTED, ADOPTED, CHECKPOINT, EFFECT, LEASE, DONE,
         FAILED, EVENT)

#: ``json``'s own default encoder settings: a payload's round trip keeps
#: its key order and fails on anything without a JSON form.
_ROUND_TRIP = json.JSONEncoder()


class LeaseError(RuntimeError):
    """Lease acquisition or renewal failed (held or lost)."""


class Fenced(LeaseError):
    """A write was refused because another owner appended first."""


def jsonable(value: Any) -> Tuple[bool, Any]:
    """``(True, value)`` when ``value`` survives a JSON round trip.

    Journal payloads must be replayable from bytes; anything without a
    JSON form is journaled by ``repr`` only and marked non-replayable.
    A plain JSON scalar is its own round trip and is handed straight
    back; subclasses and containers take the trip.
    """
    if value is None or type(value) in (bool, int, float, str):
        return True, value
    try:
        return True, json.loads(_ROUND_TRIP.encode(value))
    except (TypeError, ValueError):
        return False, None


@dataclass(frozen=True)
class JournalRecord:
    """One durable (or to-be-durable) journal entry."""

    seq: int
    time: float
    run_id: str
    kind: str
    payload: Dict[str, Any]

    def to_text(self) -> str:
        """Serialise with a trailing CRC over the canonical JSON body."""
        body = CANONICAL.encode(
            {"seq": self.seq, "t": self.time, "run": self.run_id,
             "kind": self.kind, "payload": self.payload})
        return f"{body}|crc={zlib.crc32(body.encode()):08x}"

    @classmethod
    def parse(cls, text: Any) -> Optional["JournalRecord"]:
        """Parse and CRC-verify; ``None`` for torn/corrupt records."""
        if not isinstance(text, str) or "|crc=" not in text:
            return None
        body, _, crc_hex = text.rpartition("|crc=")
        try:
            if int(crc_hex, 16) != zlib.crc32(body.encode()):
                return None
            raw = json.loads(body)
            return cls(seq=raw["seq"], time=raw["t"], run_id=raw["run"],
                       kind=raw["kind"], payload=raw["payload"])
        except (ValueError, KeyError, TypeError):
            return None


@dataclass(frozen=True)
class LeaseState:
    """Who owns something, at which fencing epoch, until when."""

    owner: str
    epoch: int
    expires: float
    ttl: float

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "LeaseState":
        """The lease a ``LEASE`` record (or a claim blob) carries."""
        return cls(owner=payload["owner"], epoch=payload["epoch"],
                   expires=payload["expires"], ttl=payload["ttl"])

    def payload(self) -> Dict[str, Any]:
        """The durable form :meth:`from_payload` reads back."""
        return {"owner": self.owner, "epoch": self.epoch,
                "expires": self.expires, "ttl": self.ttl}

    def held_at(self, now: float) -> bool:
        """Whether the lease is still live at ``now``."""
        return now < self.expires


# -- the lease rule ---------------------------------------------------------
# Pure: the lease a carrier read back in, the lease it should write out, or
# ``None`` for refused.  Storage and the error reported are the carrier's.

#: Seconds past a lapsed lease's expiry before a takeover (clock-edge races).
TAKEOVER_GRACE = 0.5


def take_lease(current: Optional[LeaseState], owner: str, now: float,
               ttl: float) -> Optional[LeaseState]:
    """Take (or retake) the lease; refused while another owner's is live.

    The first lease has epoch 1, the same owner keeps its epoch, and a
    change of owner bumps it — which is what fences the previous owner.
    """
    if current is None:
        epoch = 1
    elif current.owner == owner:
        epoch = current.epoch
    elif current.held_at(now):
        return None
    else:
        epoch = current.epoch + 1
    return LeaseState(owner, epoch, now + ttl, ttl)


def extend_lease(current: Optional[LeaseState], owner: str, now: float,
                 ttl: float) -> Optional[LeaseState]:
    """Push the expiry out; refused once the lease moved to someone else."""
    if current is None or current.owner != owner:
        return None
    return LeaseState(owner, current.epoch, now + ttl, ttl)


def drop_lease(current: Optional[LeaseState], owner: str,
               now: float) -> Optional[LeaseState]:
    """Give the lease up: it expires now, and the epoch stays on record."""
    if current is None or current.owner != owner:
        return None
    return LeaseState(owner, current.epoch, now, 0.0)


class RecordLog:
    """The durable record log under every journal and event stream.

    The log keeps no records, only how far the contiguous durable prefix
    reaches (``next_seq``): each carrier folds the records it is handed
    into whatever it needs (a lease, a run state, an event list).
    """

    def __init__(self, sim: Simulator, container: Container, name: str):
        self.sim = sim
        self.name = name
        self._container = container
        self.next_seq = 0
        self.truncated_records = 0

    def key(self, seq: int) -> str:
        """The blob key of record ``seq``."""
        return f"{self.name}/{seq:08d}"

    def open(self, event: str, **who: str) -> List[JournalRecord]:
        """Replay the store, truncate the torn tail, return the good prefix.

        A truncation is announced as ``event`` with the carrier's ``who``
        field first, then ``dropped`` and ``first_bad``.
        """
        keys = self._container.list(prefix=f"{self.name}/")
        good: List[JournalRecord] = []
        for i, key in enumerate(keys):
            record = JournalRecord.parse(self._container.read(key))
            if record is None or record.seq != len(good):
                dropped = keys[i:]
                for bad in dropped:
                    self._container.discard(bad)
                self.truncated_records += len(dropped)
                obs_of(self.sim).events.emit(
                    event, **who, dropped=len(dropped), first_bad=dropped[0])
                break
            good.append(record)
        self.next_seq = len(good)
        return good

    def tail(self) -> List[JournalRecord]:
        """Records other writers made durable since the last look.

        Probes ``key(next_seq)`` onwards and stops at the first key that
        is missing, fails its CRC or breaks the sequence, so a look costs
        what is new, not what the container holds; nothing is deleted
        outside :meth:`open`.
        """
        fresh: List[JournalRecord] = []
        while True:
            record = JournalRecord.parse(
                self._container.read(self.key(self.next_seq)))
            if record is None or record.seq != self.next_seq:
                return fresh
            fresh.append(record)
            self.next_seq += 1

    def append(self, time: float, kind: str,
               payload: Dict[str, Any]) -> JournalRecord:
        """Write the next record; it is durable when this returns."""
        record = JournalRecord(seq=self.next_seq, time=time,
                               run_id=self.name, kind=kind, payload=payload)
        self._container.put(self.key(record.seq), record.to_text())
        self.next_seq += 1
        return record


class RunJournal:
    """The write-ahead journal of one run.

    Create via :class:`JournalStore` (``create``/``open``), never
    directly — opening is where torn-tail truncation happens.
    """

    def __init__(self, sim: Simulator, container: Container,
                 run_id: str):
        self.sim = sim
        self.run_id = run_id
        self._container = container
        self._log = RecordLog(sim, container, run_id)
        self._records: List[JournalRecord] = []   # durable + verified
        self._tail: List[JournalRecord] = []      # appended, unsynced
        self._mine: set = set()                   # seqs this writer synced
        self._lease: Optional[LeaseState] = None

    @property
    def truncated_records(self) -> int:
        """Records the open path dropped as a torn tail."""
        return self._log.truncated_records

    # -- load / refresh ------------------------------------------------------

    def _load(self) -> None:
        """Replay the store, truncating the torn tail (open path)."""
        for record in self._log.open("durable.journal.truncated",
                                     run=self.run_id):
            self._apply(record)

    def _refresh(self) -> int:
        """Absorb records another writer appended since we last looked."""
        foreign = 0
        for record in self._log.tail():
            self._apply(record)
            foreign += record.seq not in self._mine
        return foreign

    def _apply(self, record: JournalRecord) -> None:
        self._records.append(record)
        if record.kind == LEASE:
            self._lease = LeaseState.from_payload(record.payload)

    # -- append / sync -------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended record will take."""
        return self._log.next_seq + len(self._tail)

    def append(self, kind: str, sync: bool = True,
               **payload: Any) -> JournalRecord:
        """Append a record; with ``sync`` (default) it is durable now."""
        if kind not in KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        record = JournalRecord(seq=self.next_seq, time=self.sim.now,
                               run_id=self.run_id, kind=kind,
                               payload=dict(payload))
        self._tail.append(record)
        if sync:
            self.sync()
        return record

    def sync(self) -> int:
        """Make buffered records durable; returns how many were written.

        Before writing, the journal re-reads the store tail: records a
        *different* writer appended since our last look mean the lease
        moved — the write is refused with :class:`Fenced` and the local
        buffer dropped, so a stale executor cannot corrupt the journal.
        """
        held = self._lease
        foreign = self._refresh()
        if not self._tail:
            return 0
        if foreign:
            self._tail.clear()
            refuse(self.sim, Cause.FENCED, run=self.run_id,
                   owner=held and held.owner, epoch=held and held.epoch)
            raise Fenced(f"run {self.run_id}: journal advanced by another "
                         f"owner; this executor is fenced")
        # The log renumbers: a buffered record takes the sequence the
        # store is at now, not the one it was handed when buffered.
        for record in self._tail:
            durable = self._log.append(record.time, record.kind,
                                       record.payload)
            self._mine.add(durable.seq)
            self._apply(durable)
        written = len(self._tail)
        self._tail.clear()
        return written

    def crash(self, torn: bool = False) -> int:
        """Simulate executor death mid-write; returns records lost.

        The unsynced tail evaporates with the executor's memory.  With
        ``torn``, the first lost record was in flight to the store when
        the power went: a truncated (CRC-failing) blob is left behind
        for the next open to detect and truncate.
        """
        lost = len(self._tail)
        if torn and self._tail:
            base = self._log.next_seq
            text = replace(self._tail[0], seq=base).to_text()
            self._container.put(self._log.key(base),
                                text[: max(1, (2 * len(text)) // 3)])
            obs_of(self.sim).events.emit("durable.journal.torn",
                                         run=self.run_id, seq=base)
        self._tail.clear()
        return lost

    def records(self) -> List[JournalRecord]:
        """Durable records, oldest first (unsynced tail excluded)."""
        return list(self._records)

    def pending(self) -> int:
        """Appended-but-unsynced records (lost on crash)."""
        return len(self._tail)

    # -- lease protocol ------------------------------------------------------

    def lease(self) -> Optional[LeaseState]:
        """The current lease record (refreshes from the store first)."""
        self._refresh()
        return self._lease

    def acquire(self, owner: str, ttl: float) -> int:
        """Take (or retake) the lease; returns the fencing epoch.

        Refused with :class:`LeaseError` while a *different* owner's
        lease is unexpired (the rule is :func:`take_lease`).
        """
        current = self.lease()
        now = self.sim.now
        lease = take_lease(current, owner, now, ttl)
        if lease is None:
            raise LeaseError(
                f"run {self.run_id} leased by {current.owner!r} until "
                f"t={current.expires:.1f} (now t={now:.1f})")
        self.append(LEASE, **lease.payload())
        obs_of(self.sim).events.emit("durable.lease.acquired",
                                     run=self.run_id, owner=owner,
                                     epoch=lease.epoch, ttl=ttl)
        return lease.epoch

    def renew(self, owner: str, ttl: float) -> int:
        """Extend the lease; :class:`LeaseError` if it moved on."""
        current = self.lease()
        lease = extend_lease(current, owner, self.sim.now, ttl)
        if lease is None:
            holder = current.owner if current else None
            raise LeaseError(f"run {self.run_id}: lease lost "
                             f"(now held by {holder!r})")
        self.append(LEASE, **lease.payload())
        return lease.epoch

    def release(self, owner: str) -> None:
        """Give the lease up early (expires immediately); idempotent."""
        lease = drop_lease(self.lease(), owner, self.sim.now)
        if lease is not None:
            self.append(LEASE, **lease.payload())


class JournalStore:
    """A namespace of run journals plus their bulky payloads.

    Journals hold small CRC-checked records; checkpoint result sets and
    other large values go to a sibling payload container and are
    referenced from records by key — the usual WAL/blob split.
    """

    def __init__(self, sim: Simulator, blobstore: BlobStore,
                 name: str = "run-journals"):
        self.sim = sim
        self.name = name
        self._journals = blobstore.create_container(name)
        self._payloads = blobstore.create_container(f"{name}-payloads")

    # -- journals ------------------------------------------------------------

    def exists(self, run_id: str) -> bool:
        """Whether a journal for ``run_id`` has any durable record."""
        return bool(self._journals.list(prefix=f"{run_id}/"))

    def create(self, run_id: str) -> RunJournal:
        """A fresh journal (the run must not already have one)."""
        if self.exists(run_id):
            raise ValueError(f"journal for run {run_id!r} already exists")
        return RunJournal(self.sim, self._journals, run_id)

    def open(self, run_id: str) -> RunJournal:
        """Open an existing journal, truncating any torn tail."""
        journal = RunJournal(self.sim, self._journals, run_id)
        journal._load()
        return journal

    def open_or_create(self, run_id: str) -> RunJournal:
        """Open when records exist, else a fresh journal."""
        return self.open(run_id) if self.exists(run_id) \
            else self.create(run_id)

    def run_ids(self) -> List[str]:
        """Every run with at least one durable record, sorted."""
        return sorted({key.split("/", 1)[0]
                       for key in self._journals.list()})

    # -- payloads ------------------------------------------------------------

    def put_payload(self, key: str, value: Any) -> str:
        """Store a bulky value; returns the key for journal reference."""
        self._payloads.put(key, value)
        return key

    def get_payload(self, key: str) -> Any:
        """Fetch a previously stored payload."""
        return self._payloads.get(key).payload

    def has_payload(self, key: str) -> bool:
        """Whether ``key`` was stored (and survived faults)."""
        return self._payloads.exists(key)
