"""User sessions and the session table.

A session binds a portal user to the instance currently serving them.
Assignment changes (initial placement, migration off a failed or drained
instance) are *pushed* to the user's channel — "RB [pushes] any session
updates to the user's browser, such as in the case of migrating the user
to a new cloud instance" — so the client always knows where to send its
next request without polling.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.instance import Instance
from repro.sim import Simulator
from repro.tenancy.context import DEFAULT_TENANT


class SessionState(enum.Enum):
    """Lifecycle of a user session."""

    WAITING = "waiting"     # connected, no instance assigned yet
    ACTIVE = "active"       # pinned to a serving instance
    ENDED = "ended"


class UserSession:
    """One user's live attachment to the portal."""

    #: every session opens WAITING.  A class default, not a store in
    #: ``__init__``: a session opens per connection, and reading an enum
    #: member off its class is dear on CPython 3.11
    state = SessionState.WAITING

    def __init__(self, sim: Simulator, user_name: str,
                 channel: Optional[Any] = None, purpose: str = "general",
                 tenant: str = DEFAULT_TENANT,
                 table: Optional["SessionTable"] = None):
        self._sim = sim
        # the table indexing this session by where it sits; a bare
        # session is unindexed
        self._table = table
        # the session's number in its simulation is also its creation
        # rank in the table
        self._seq = sim.next_id("session")
        # %-formatting: the f-string format spec costs nearly twice as much
        self.session_id = "sess-%06d" % self._seq
        self.user_name = user_name
        self.channel = channel      # anything with .push(payload)
        self.purpose = purpose      # e.g. the model the user wants to run
        # the principal this session bills to: its DRR lane, its
        # fairness row and the label on its trace
        self.tenant = tenant
        self.created_at = sim.now
        self.assigned_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.instance: Optional[Instance] = None
        self.migrations: List[Dict[str, Any]] = []
        # distributed tracing: the RB opens a root span per session and
        # parks its context here; widgets propagate it on every request
        self.trace_context: Optional[Any] = None
        self.trace_span: Optional[Any] = None
        # scheduling class (a repro.sched PriorityClass), stamped by the
        # plane at submission; None means interactive — kept untyped so
        # the session layer stays below the scheduling substrate
        self.priority: Optional[Any] = None

    @property
    def wait_time(self) -> Optional[float]:
        """Seconds from creation to first assignment (None until then)."""
        if self.assigned_at is None:
            return None
        return self.assigned_at - self.created_at

    @property
    def instance_address(self) -> Optional[str]:
        """Address of the currently assigned instance."""
        return self.instance.address if self.instance is not None else None

    def assign(self, instance: Instance) -> None:
        """Pin the session to ``instance`` and push the update."""
        if self.state == SessionState.ENDED:
            raise ValueError(f"session {self.session_id} already ended")
        previous = self.instance
        self.instance = instance
        if self._table is not None and previous is not instance:
            self._table._placed(self, previous, instance)
        if self.assigned_at is None:
            self.assigned_at = self._sim.now
        if previous is not None and previous is not instance:
            self.migrations.append({
                "at": self._sim.now,
                "from": previous.address,
                "to": instance.address,
            })
        self.state = SessionState.ACTIVE
        self._push({
            "type": "session.assign",
            "sessionId": self.session_id,
            "instance": instance.address,
        })

    def unassign(self) -> None:
        """Detach the session from its instance, returning it to WAITING.

        Used when a replica is lost and no other replica can take the
        session yet; it re-enters the broker's waiting queue.
        """
        if self.state == SessionState.ENDED:
            return
        if self._table is not None and self.instance is not None:
            self._table._displaced(self, self.instance)
        self.instance = None
        self.state = SessionState.WAITING
        self._push({"type": "session.wait", "sessionId": self.session_id})

    def end(self) -> None:
        """Terminate the session (user navigated away); idempotent."""
        if self.state == SessionState.ENDED:
            return
        self.state = SessionState.ENDED
        self.ended_at = self._sim.now
        if self._table is not None:
            self._table._leave(self, self.instance)
        self.instance = None
        if self.trace_span is not None and not self.trace_span.finished:
            self.trace_span.set_attribute("migrations", len(self.migrations))
            self.trace_span.finish()
        self._push({"type": "session.end", "sessionId": self.session_id})

    def _push(self, payload: Dict[str, Any]) -> None:
        if self.channel is not None:
            self.channel.push(payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<UserSession {self.session_id} {self.user_name} "
                f"{self.state.value} on {self.instance_address}>")


class SessionTable:
    """Registry of all sessions, live and ended.

    Live sessions are also indexed by where they sit: the waiting ones
    by creation rank, the placed ones in one bucket per instance kept in
    creation order.  ``UserSession.assign`` / ``unassign`` / ``end``
    keep the index in step, so the per-instance reads and every count
    cost what they return, however many sessions have come and gone.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._sessions: Dict[str, UserSession] = {}
        #: creation rank -> waiting session
        self._waiting: Dict[int, UserSession] = {}
        #: instance -> [(creation rank, session)], ascending; a bucket
        #: that empties is deleted
        self._buckets: Dict[Instance, List[Tuple[int, UserSession]]] = {}
        self._active = 0

    def create(self, user_name: str, channel: Optional[Any] = None,
               purpose: str = "general",
               tenant: str = DEFAULT_TENANT) -> UserSession:
        """Open a new session in WAITING state."""
        session = UserSession(self._sim, user_name, channel, purpose,
                              tenant, self)
        self._sessions[session.session_id] = session
        self._waiting[session._seq] = session
        return session

    # -- index upkeep (called by UserSession) --------------------------------

    def _placed(self, session: UserSession, previous: Optional[Instance],
                instance: Instance) -> None:
        self._leave(session, previous)
        insort(self._buckets.setdefault(instance, []),
               (session._seq, session))
        self._active += 1

    def _displaced(self, session: UserSession, instance: Instance) -> None:
        self._leave(session, instance)
        self._waiting[session._seq] = session

    def _leave(self, session: UserSession,
               where: Optional[Instance]) -> None:
        """Take ``session`` out of wherever it sits (``None`` = waiting)."""
        if where is None:
            del self._waiting[session._seq]
            return
        bucket = self._buckets[where]
        # (rank,) sorts just before (rank, session): no session compare
        del bucket[bisect_left(bucket, (session._seq,))]
        if not bucket:
            del self._buckets[where]
        self._active -= 1

    # -- reads ---------------------------------------------------------------

    def get(self, session_id: str) -> UserSession:
        """Look a session up by id."""
        return self._sessions[session_id]

    def active(self) -> List[UserSession]:
        """Sessions currently pinned to an instance, in creation order.

        Order contract: oldest-created first, whichever instance each
        sits on (the order the tenancy console and the benches' digests
        iterate in).
        """
        placed = [entry for bucket in self._buckets.values()
                  for entry in bucket]
        placed.sort()
        return [session for _, session in placed]

    def waiting(self) -> List[UserSession]:
        """Sessions not yet assigned, in creation order."""
        return [self._waiting[seq] for seq in sorted(self._waiting)]

    def on_instance(self, instance: Instance) -> List[UserSession]:
        """Active sessions pinned to ``instance``, in creation order.

        Order contract: oldest-created first, *not* oldest-arrived — a
        session migrated here takes the place its creation rank gives
        it.  Migration and rebalancing move sessions in this order, and
        every move is a push that draws delivery latency from the
        seeded stream, so the order is part of the simulated result.
        """
        return [session for _, session in self._buckets.get(instance, ())]

    def oldest_on(self, instance: Instance) -> Optional[UserSession]:
        """The first session :meth:`on_instance` would return, if any."""
        bucket = self._buckets.get(instance)
        return bucket[0][1] if bucket else None

    def count_on(self, instance: Instance) -> int:
        """How many active sessions are pinned to ``instance``."""
        return len(self._buckets.get(instance, ()))

    def all(self) -> List[UserSession]:
        """Every session ever created."""
        return list(self._sessions.values())

    def waiting_count(self) -> int:
        """Sessions not yet assigned."""
        return len(self._waiting)

    def active_count(self) -> int:
        """Sessions currently pinned to an instance."""
        return self._active
