"""``Idempotency-Key``: exactly-once mutations at the API boundary.

The retry stack (PR 3) replays requests it believes are safe; a mutating
POST is only safe to replay if the server can recognise the replay.  A
client that may retry stamps the request with an ``Idempotency-Key``;
the server then guarantees that *one* execution happens per key and
every replay receives the original response, marked
``Idempotency-Replayed: true``.

The index is a blob container shared by every replica — like the WPS
status container, it keeps the replicas stateless: whichever replica a
retry lands on sees the same reservations.  The protocol per key:

1. **fresh** — no record, or one given up without a response: a
   *pending* reservation (a lease owned by this attempt) is written
   before the handler runs, then the final response is recorded under it.
2. **replay** — a completed record whose request fingerprint matches:
   the stored response is returned without running the handler.
3. **conflict** — a completed (or pending) record whose fingerprint
   differs: the client reused a key for a different request; that is a
   permanent 422, never retried.
4. **pending** — a live reservation for the same fingerprint: another
   in-flight attempt is executing; the caller gets a retryable 409 and
   its backoff outwaits the first attempt.
5. An **expired** reservation (executor died mid-flight) is taken over
   at a bumped epoch; the dead attempt's late ``record`` or ``forget``
   is fenced by the epoch, exactly like the journal lease protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cloud.storage import Container
from repro.durable.journal import LeaseState, drop_lease, take_lease
from repro.perf.keys import content_key
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT

#: How long a pending reservation blocks other attempts, seconds.
PENDING_TTL = 120.0


def request_fingerprint(method: str, path: str, body: Any) -> str:
    """The content identity of a request, for key-reuse detection."""
    try:
        return content_key({"method": method, "path": path, "body": body})
    except TypeError:
        return content_key({"method": method, "path": path,
                            "body": repr(body)})


@dataclass(frozen=True)
class Admission:
    """The verdict for one keyed request attempt.

    ``kind`` is ``fresh`` / ``replay`` / ``conflict`` / ``pending``;
    ``response`` carries the stored document for replays.  A fresh
    admission is the request's ticket: ``slot`` is the blob its
    reservation lives under (derived once, here) and ``owner`` /
    ``epoch`` the lease that fences its ``record`` or ``forget``.
    """

    kind: str
    epoch: int = 0
    response: Optional[Dict[str, Any]] = None
    slot: str = ""
    owner: str = ""


class IdempotencyIndex:
    """The durable per-``(tenant, key)`` reservation/response table.

    Exactly-once is a *per-tenant* promise: tenants choose keys
    independently, so the same ``Idempotency-Key`` from two tenants is
    two unrelated requests and must never replay across the boundary.
    A request that names no tenant is the default tenant's, however
    that was spelled: no header and ``Tenant: default`` share a record.
    """

    def __init__(self, sim: Simulator, container: Container):
        self.sim = sim
        self._container = container
        self.replays = 0
        self.takeovers = 0

    def _read(self, slot: str) -> Tuple[Optional[Dict], Optional[LeaseState]]:
        """A slot's record (fingerprint, lease, response) and its lease."""
        record = self._container.read(slot)
        return record, record and LeaseState.from_payload(record["lease"])

    def admit(self, key: str, fingerprint: str,
              tenant: str = DEFAULT_TENANT) -> Admission:
        """Classify one attempt and, when fresh, reserve the key.

        ``tenant`` scopes the key: reservations, replays and conflicts
        are all per ``(tenant, key)``.
        """
        slot = f"idem/{content_key((tenant, key))}"
        record, current = self._read(slot)
        # a response or a reservation not given up pins the request
        if current is not None and ("response" in record or current.ttl > 0):
            if record["fingerprint"] != fingerprint:
                return Admission(kind="conflict")
            if "response" in record:
                self.replays += 1
                return Admission(kind="replay", response=record["response"])
        owner = f"idem-{self.sim.next_id('idem')}"
        lease = take_lease(current, owner, self.sim.now, PENDING_TTL)
        if lease is None:
            return Admission(kind="pending")
        if current is not None and current.ttl > 0:
            # the reservation lapsed: its executor died; take over
            self.takeovers += 1
        self._container.put(slot, {"fingerprint": fingerprint,
                                   "lease": lease.payload()})
        return Admission(kind="fresh", epoch=lease.epoch, slot=slot,
                         owner=owner)

    def record(self, ticket: Admission, status: int, body: Any,
               headers: Optional[Dict[str, str]] = None) -> bool:
        """Store the final response for a fresh admission.

        Fenced: a stale executor (its reservation lapsed and was taken
        over) no longer holds the ticket's ``(owner, epoch)`` and must
        not overwrite the new attempt's state.  Returns whether stored.
        """
        record, lease = self._read(ticket.slot)
        if lease is None or (lease.owner, lease.epoch) != \
                (ticket.owner, ticket.epoch):
            return False
        self._container.put(ticket.slot, dict(record, response={
            "status": status, "body": body, "headers": dict(headers or {})}))
        return True

    def forget(self, ticket: Admission) -> None:
        """Drop the lease of a failed attempt that should not pin the key;
        the record and its epoch stay, and a stale ticket changes nothing."""
        record, current = self._read(ticket.slot)
        lease = drop_lease(current, ticket.owner, self.sim.now)
        if lease is not None:
            self._container.put(ticket.slot,
                                dict(record, lease=lease.payload()))
