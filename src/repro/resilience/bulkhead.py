"""Bulkheads: bounded in-flight work per target, shed on overflow.

Admission control is the half of resilience that protects the *healthy*
part of the system: when one target slows down, an unbounded client
happily parks its whole concurrency budget against it.  A
:class:`Bulkhead` caps in-flight requests per target, keeps a short FIFO
wait queue for bursts, and *sheds* anything beyond that immediately —
the caller gets a retryable 429 in microseconds instead of a timeout in
tens of seconds, and the backoff machinery spreads the re-offered load.

The API is signal-based to fit the simulator: :meth:`Bulkhead.acquire`
returns a :class:`Ticket` that is either admitted now, queued (wait on
``ticket.gate``, which fires ``True`` when a slot frees and ``False``
if abandoned), or shed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.sim import Signal, Simulator


@dataclass
class Ticket:
    """Outcome of an admission attempt."""

    #: A slot is held right now; call :meth:`Bulkhead.release` when done.
    admitted: bool = False
    #: The request was shed: no slot, no queue position.
    shed: bool = False
    #: When queued: fires ``True`` on admission (the slot is then held),
    #: ``False`` if the wait was abandoned.
    gate: Optional[Signal] = None


class Bulkhead:
    """In-flight cap plus a bounded wait queue for one target."""

    def __init__(self, sim: Simulator, target: str,
                 max_in_flight: int = 8, max_queue: int = 16):
        self.sim = sim
        self.target = target
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.in_flight = 0
        self.admitted_total = 0
        self.shed_total = 0
        self.queued_total = 0
        self._queue: Deque[Signal] = deque()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a slot."""
        return len(self._queue)

    def acquire(self) -> Ticket:
        """Try to take a slot: admitted, queued, or shed."""
        if self.in_flight < self.max_in_flight:
            self.in_flight += 1
            self.admitted_total += 1
            return Ticket(admitted=True)
        if len(self._queue) >= self.max_queue:
            self.shed_total += 1
            return Ticket(shed=True)
        gate = self.sim.signal(f"bulkhead.{self.target}.gate")
        self._queue.append(gate)
        self.queued_total += 1
        return Ticket(gate=gate)

    def try_acquire(self) -> bool:
        """Take a slot only if one is free now (no queueing, no shed count).

        Used by opportunistic work — hedge attempts — that should never
        displace demand-driven traffic.
        """
        if self.in_flight < self.max_in_flight:
            self.in_flight += 1
            self.admitted_total += 1
            return True
        return False

    def abandon(self, ticket: Ticket) -> bool:
        """Give up a queued wait.

        Returns ``True`` if the ticket was still queued (it is removed
        and its gate fired ``False``).  Returns ``False`` if the ticket
        was already granted — the caller then holds a slot and must
        :meth:`release` it (or use it).
        """
        if ticket.gate is None or ticket.gate.fired:
            return False
        try:
            self._queue.remove(ticket.gate)
        except ValueError:
            return False
        ticket.gate.fire(False)
        return True

    def release(self) -> None:
        """Return a slot; hands it to the oldest queued waiter if any."""
        while self._queue:
            gate = self._queue.popleft()
            if gate.fired:  # defensive: abandoned gates leave the queue
                continue
            # the slot transfers to the waiter: in_flight is unchanged
            self.admitted_total += 1
            gate.fire(True)
            return
        self.in_flight = max(0, self.in_flight - 1)


class BulkheadGroup:
    """Per-target bulkheads sharing one configuration."""

    def __init__(self, sim: Simulator, max_in_flight: int = 8,
                 max_queue: int = 16):
        self.sim = sim
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self._bulkheads: Dict[str, Bulkhead] = {}

    def get(self, target: str) -> Bulkhead:
        """The bulkhead for ``target``, created on first use."""
        bulkhead = self._bulkheads.get(target)
        if bulkhead is None:
            bulkhead = Bulkhead(self.sim, target,
                                max_in_flight=self.max_in_flight,
                                max_queue=self.max_queue)
            self._bulkheads[target] = bulkhead
        return bulkhead
