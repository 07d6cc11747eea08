"""The reference kernel: what this box's CPU is worth right now.

A shared box has slow phases that outlast a run: a neighbour on the
sibling hyperthread or a lower turbo bin makes *every* pass of a run
read 10-80% dearer for minutes, then the box recovers.  No estimator
over a run's passes can see through that, so the run measures the phase
instead: between passes it times a fixed piece of Python — the same
kind of work the estate does (a calendar of small objects pushed and
popped, dictionaries filled and drained, a generator resumed, then a
pointer chase over a table too big for the private caches) — and every
host time is scaled by ``NOMINAL_S / measured``, i.e. reported as what
it would have cost on the box at its nominal speed.  The kernel lives
here, not under ``src/``, so no change to the program moves it.

Over ten seeds per workload, calibration took the spread of
``host_us_per_op`` between runs from 23-44% to 5-12% on a busy hour and
left a quiet hour's 4-16% at 3-10%; the raw times are kept beside the
calibrated ones.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Any, Dict, Iterator, List

#: CPU seconds one :meth:`Reference.sample` costs between two passes on
#: the quiet box the workload sizes were derived on (a third less in a
#: process that has run nothing else) — the speed host times are quoted at
NOMINAL_S = 0.44

EVENTS = 24_000
TABLE_ROWS = 100_000
WALK_STEPS = 60_000
REPEATS = 5


class _Event:
    __slots__ = ("time", "order", "payload")

    def __init__(self, at: float, order: int, payload: Dict[str, Any]):
        self.time = at
        self.order = order
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.order) < (other.time, other.order)


def _echo(steps: int) -> Iterator[float]:
    value = 0.0
    for step in range(steps):
        value = yield value + step


class Reference:
    """A fixed amount of estate-like Python work, timed on demand."""

    def __init__(self) -> None:
        draws = random.Random(0)
        self._table: List[Dict[str, Any]] = [
            {"id": row, "value": float(row), "tags": [row, row + 1]}
            for row in range(TABLE_ROWS)]
        self._walk = [draws.randrange(TABLE_ROWS) for _ in range(WALK_STEPS)]

    def _churn(self) -> int:
        """Allocation-heavy event-loop work on a small working set."""
        calendar: List[_Event] = []
        index: Dict[str, _Event] = {}
        echoed: List[float] = []
        echo = _echo(EVENTS)
        next(echo)
        now = 0.0
        for order in range(EVENTS):
            now += (order * 7919 % 101) * 0.01
            heapq.heappush(calendar, _Event(
                now, order, {"id": f"s-{order}", "value": now * 0.5}))
            if order % 3 == 0:
                event = heapq.heappop(calendar)
                index[event.payload["id"]] = event
                echoed.append(echo.send(event.time))
            if order % 11 == 0 and index:
                index.pop(next(iter(index)))
        return len(echoed) + len(index)

    def _chase(self) -> float:
        """Scattered reads and writes over a table the caches cannot hold."""
        table = self._table
        total = 0.0
        for row in self._walk:
            record = table[row]
            record["value"] = record["value"] * 0.5 + record["tags"][0]
            total += record["value"]
        return total

    def sample(self) -> float:
        """CPU seconds the reference work costs at this moment.

        The collector is held off meanwhile: the kernel's garbage is
        acyclic, and a collection here would walk whatever heap the
        program left behind — the one thing the reference must not see.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            for _ in range(REPEATS):
                self._churn()
                self._chase()
            return time.process_time() - start
        finally:
            if collecting:
                gc.enable()
