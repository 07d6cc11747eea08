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

1. **fresh** — no record: a *pending* reservation (with a TTL and an
   epoch) is written before the handler runs, then the final response
   is recorded against the same epoch.
2. **replay** — a completed record whose request fingerprint matches:
   the stored response is returned without running the handler.
3. **conflict** — a completed (or pending) record whose fingerprint
   differs: the client reused a key for a different request; that is a
   permanent 422, never retried.
4. **pending** — an unexpired reservation for the same fingerprint:
   another in-flight attempt is executing; the caller gets a
   retryable 409 and its backoff outwaits the first attempt.
5. An **expired** reservation (executor died mid-flight) is taken over
   with a bumped epoch; the dead attempt's late ``record`` is fenced
   by the epoch check, exactly like the journal lease protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cloud.storage import Container
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
    reservation lives under (derived once, here) and ``epoch`` fences
    the eventual :meth:`IdempotencyIndex.record`.
    """

    kind: str
    epoch: int = 0
    response: Optional[Dict[str, Any]] = None
    slot: str = ""


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
        self.conflicts = 0
        self.takeovers = 0

    def admit(self, key: str, fingerprint: str,
              tenant: str = DEFAULT_TENANT) -> Admission:
        """Classify one attempt and, when fresh, reserve the key.

        ``tenant`` scopes the key: reservations, replays and conflicts
        are all per ``(tenant, key)``.
        """
        slot = f"idem/{content_key((tenant, key))}"
        record = self._container.read(slot)
        if record is not None:
            if record["fingerprint"] != fingerprint:
                self.conflicts += 1
                return Admission(kind="conflict")
            if record["state"] == "done":
                self.replays += 1
                return Admission(kind="replay", response=record["response"])
            if record["expires"] > self.sim.now:
                return Admission(kind="pending")
            # Expired reservation: the executor died; take over.
            self.takeovers += 1
            epoch = record["epoch"] + 1
        else:
            epoch = 0
        self._container.put(slot, {
            "state": "pending",
            "fingerprint": fingerprint,
            "epoch": epoch,
            "expires": self.sim.now + PENDING_TTL,
        })
        return Admission(kind="fresh", epoch=epoch, slot=slot)

    def record(self, ticket: Admission, status: int, body: Any,
               headers: Optional[Dict[str, str]] = None) -> bool:
        """Store the final response for a fresh admission.

        Fenced: a stale executor (its reservation expired and was taken
        over) must not overwrite the new attempt's state.  Returns
        whether the response was stored.
        """
        record = self._container.read(ticket.slot)
        if record is None or record["epoch"] != ticket.epoch:
            return False
        self._container.put(ticket.slot, {
            "state": "done",
            "fingerprint": record["fingerprint"],
            "epoch": ticket.epoch,
            "response": {"status": status, "body": body,
                         "headers": dict(headers or {})},
        })
        return True

    def forget(self, ticket: Admission) -> None:
        """Drop a reservation (a failed attempt that should not pin the
        key — e.g. the handler never produced a recordable response)."""
        self._container.discard(ticket.slot)
