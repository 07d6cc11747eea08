"""Circuit breakers: stop sending traffic a target will drop.

A breaker guards one *target* — a service at a location or address —
and summarises its recent history into three states:

* ``closed`` — traffic flows; outcomes are recorded into a sliding
  failure-rate window.
* ``open`` — the window crossed the failure threshold; calls fast-fail
  locally (no wire traffic, no timeout burned) until ``reset_timeout``
  elapses.
* ``half_open`` — after the cooldown, a bounded number of probe calls
  go through; enough successes close the breaker, any failure re-opens
  it.

The broker uses one breaker per service×location (via
:class:`BreakerRegistry`), which is what turns "eu-west keeps refusing
launches" from a per-call discovery into shared state: the first caller
pays for the discovery, everyone else routes around it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.sim import Simulator

#: State names, used in metrics/events and asserted by tests.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BreakerOpen(Exception):
    """Raised by :meth:`CircuitBreaker.check` when the circuit is open."""

    def __init__(self, target: str, retry_after: float):
        super().__init__(f"circuit open for {target!r}")
        self.target = target
        self.retry_after = retry_after


class CircuitBreaker:
    """Failure-rate breaker for one target."""

    def __init__(self, sim: Simulator, target: str,
                 failure_threshold: float = 0.5,
                 window_seconds: float = 60.0,
                 min_calls: int = 4,
                 reset_timeout: float = 30.0,
                 half_open_probes: int = 2,
                 on_transition: Optional[Callable[[str, str, str], None]] = None):
        self.sim = sim
        self.target = target
        self.failure_threshold = failure_threshold
        self.window_seconds = window_seconds
        self.min_calls = min_calls
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._on_transition = on_transition
        self._state = CLOSED
        self._outcomes: Deque[Tuple[float, bool]] = deque()
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state (cooldown expiry is applied on :meth:`allow`)."""
        return self._state

    def allow(self) -> bool:
        """Whether a call to the target may proceed right now."""
        if self._state == OPEN:
            if self.sim.now - self._opened_at >= self.reset_timeout:
                self._transition(HALF_OPEN)
                self._probes_in_flight = 0
                self._probe_successes = 0
            else:
                return False
        if self._state == HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                return False
            self._probes_in_flight += 1
        return True

    def check(self) -> None:
        """Like :meth:`allow` but raises :class:`BreakerOpen` on refusal."""
        if not self.allow():
            remaining = max(0.0, self.reset_timeout
                            - (self.sim.now - self._opened_at))
            raise BreakerOpen(self.target, retry_after=remaining)

    def record_success(self) -> None:
        """Record a successful call outcome."""
        if self._state == HALF_OPEN:
            self._probe_successes += 1
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            if self._probe_successes >= self.half_open_probes:
                self._transition(CLOSED)
                self._outcomes.clear()
            return
        self._observe(True)

    def record_failure(self) -> None:
        """Record a failed call outcome; may trip the breaker."""
        if self._state == HALF_OPEN:
            # the probe proved the target is still broken: full cooldown
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._trip()
            return
        self._observe(False)
        if self._state != CLOSED:
            return
        total = len(self._outcomes)
        if total < self.min_calls:
            return
        failures = sum(1 for _t, ok in self._outcomes if not ok)
        if failures / total >= self.failure_threshold:
            self._trip()

    # -- internals ---------------------------------------------------------

    def _observe(self, ok: bool) -> None:
        now = self.sim.now
        self._outcomes.append((now, ok))
        horizon = now - self.window_seconds
        while self._outcomes and self._outcomes[0][0] < horizon:
            self._outcomes.popleft()

    def _trip(self) -> None:
        self._opened_at = self.sim.now
        self.trips += 1
        self._outcomes.clear()
        self._transition(OPEN)

    def _transition(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if old != new_state and self._on_transition is not None:
            self._on_transition(self.target, old, new_state)


class BreakerRegistry:
    """Shared per-target breakers, created on first use.

    One registry is shared by everything dispatching to the same fleet
    (client fabric, load balancer, multi-cloud provisioner) so that a
    trip observed by one caller protects all of them.  ``on_transition``
    is invoked for every state change of every breaker — the obs/metrics
    bridge hangs off it.
    """

    def __init__(self, sim: Simulator,
                 on_transition: Optional[Callable[[str, str, str], None]] = None,
                 **breaker_kwargs):
        self.sim = sim
        self._kwargs = breaker_kwargs
        self._on_transition = on_transition
        self._breakers: Dict[str, CircuitBreaker] = {}

    @staticmethod
    def key(service: str, location: str) -> str:
        """The canonical service×location breaker key."""
        return f"{service}@{location}"

    def get(self, target: str) -> CircuitBreaker:
        """The breaker for ``target``, created on first use."""
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(self.sim, target,
                                     on_transition=self._on_transition,
                                     **self._kwargs)
            self._breakers[target] = breaker
        return breaker
