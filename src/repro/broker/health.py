"""Instance health monitoring.

The LB "monitors the health status of running instances ... namely CPU
utilisation, disk reads and writes, and network usage.  Degradation in
these metrics, such as sustained high CPU utilisation or zero outbound
network usage whilst receiving inbound traffic, triggers LB into starting
a new instance and redirecting users".

The monitor samples each watched instance's CPU share, NIC bytes in and
out, and jobs completed (disk I/O is not modelled) on a fixed period,
and issues a verdict from the sample window:

* ``DEAD`` — the instance stopped serving altogether.
* ``WEDGED`` — CPU pinned high for the whole window *and* no jobs
  completed: the degraded-VM signature (busy instances still complete
  work, so they do not trip this).
* ``BLACKHOLED`` — inbound bytes grew over the window while outbound
  stayed flat.
* ``OVERLOADED`` — CPU high and work still completing: not a fault, a
  capacity signal the autoscaler consumes.
* ``HEALTHY`` — none of the above.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.cloud.instance import Instance
from repro.sim import Simulator
from repro.sim.metrics import MetricsRegistry

#: CPU share at or above which a sample counts as pinned.
CPU_THRESHOLD = 0.95
#: The wedged verdict's horizon, in plain windows.  It must be much
#: longer than one model run, or every busy instance running long jobs
#: looks stuck: an instance is declared wedged after this many windows
#: of pinned CPU with zero completions.
WEDGED_WINDOWS = 8


class HealthVerdict(enum.Enum):
    """Outcome of evaluating an instance's sample window."""

    HEALTHY = "healthy"
    OVERLOADED = "overloaded"
    WEDGED = "wedged"
    BLACKHOLED = "blackholed"
    DEAD = "dead"

    @property
    def is_fault(self) -> bool:
        """Whether the verdict should trigger replacement."""
        return self in (HealthVerdict.WEDGED, HealthVerdict.BLACKHOLED,
                        HealthVerdict.DEAD)


@dataclass(frozen=True)
class VerdictTransition:
    """One verdict *change* for a watched instance.

    The sample loop re-issues fault verdicts every interval; transitions
    record only the edges, which is what detection-latency assertions
    and recovery dedup actually want.
    """

    time: float
    instance_id: str
    previous: HealthVerdict
    verdict: HealthVerdict


@dataclass(frozen=True)
class HealthSample:
    """One observation of the instance counters the heuristics read."""

    cpu: float
    net_in: float
    net_out: float
    jobs_completed: int


class HealthMonitor:
    """Periodic sampler + heuristic evaluator for a set of instances."""

    def __init__(self, sim: Simulator, interval: float = 5.0,
                 window: int = 4,
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.interval = interval
        self.window = window
        # optional instrumentation: every evaluation counts as a check,
        # every fault verdict as a fault — the ratio is the replica-
        # health SLI the telemetry plane alerts on (a single blackholed
        # replica barely dents request availability once the LB routes
        # around it, but it dominates this ratio immediately)
        self.metrics = metrics
        self.wedged_window = WEDGED_WINDOWS * window
        self._samples: Dict[str, Deque[HealthSample]] = {}
        self._watched: Dict[str, Instance] = {}
        self._callbacks: List[Callable[[Instance, HealthVerdict], None]] = []
        self._loop_running = False
        self._last: Dict[str, HealthVerdict] = {}
        self._transitions: List[VerdictTransition] = []

    def on_verdict(self, callback: Callable[[Instance, HealthVerdict], None]) -> None:
        """Register a callback invoked with every non-healthy verdict."""
        self._callbacks.append(callback)

    def watch(self, instance: Instance) -> None:
        """Start monitoring ``instance``."""
        self._watched[instance.instance_id] = instance
        self._samples.setdefault(
            instance.instance_id,
            deque(maxlen=max(self.window, self.wedged_window)))
        if not self._loop_running:
            self._loop_running = True
            self.sim.spawn(self._sample_loop(), name="health-monitor")

    def unwatch(self, instance: Instance) -> None:
        """Stop monitoring ``instance``."""
        self._watched.pop(instance.instance_id, None)
        self._samples.pop(instance.instance_id, None)
        self._last.pop(instance.instance_id, None)

    def transitions(self, instance: Optional[Instance] = None
                    ) -> List[VerdictTransition]:
        """Verdict changes observed so far, oldest first.

        Includes recoveries (back to ``HEALTHY``), so detection latency
        is ``transition.time - injection.time`` without polling.
        """
        if instance is None:
            return list(self._transitions)
        return [t for t in self._transitions
                if t.instance_id == instance.instance_id]

    def watched(self) -> List[Instance]:
        """Instances currently being monitored."""
        return list(self._watched.values())

    def _sample_loop(self):
        while True:
            yield self.interval
            for instance in list(self._watched.values()):
                self._take_sample(instance)
                verdict = self.verdict(instance)
                if self.metrics is not None:
                    self.metrics.counter("health.checks").increment()
                    if verdict.is_fault:
                        self.metrics.counter("health.faults").increment()
                previous = self._last.get(instance.instance_id,
                                          HealthVerdict.HEALTHY)
                if verdict != previous:
                    self._last[instance.instance_id] = verdict
                    transition = VerdictTransition(
                        time=self.sim.now,
                        instance_id=instance.instance_id,
                        previous=previous, verdict=verdict)
                    self._transitions.append(transition)
                if verdict != HealthVerdict.HEALTHY:
                    for callback in self._callbacks:
                        callback(instance, verdict)

    def _take_sample(self, instance: Instance) -> None:
        self._samples[instance.instance_id].append(HealthSample(
            instance.cpu_utilization(), instance.net_bytes_in,
            instance.net_bytes_out, instance.jobs_completed))

    def verdict(self, instance: Instance) -> HealthVerdict:
        """Evaluate the heuristics against the sample window."""
        if instance.is_gone:
            return HealthVerdict.DEAD
        samples = self._samples.get(instance.instance_id)
        if not samples or len(samples) < self.window:
            return HealthVerdict.HEALTHY  # not enough evidence yet
        recent = list(samples)[-self.window:]
        first, last = recent[0], recent[-1]
        received = last.net_in > first.net_in
        transmitted = last.net_out > first.net_out
        if received and not transmitted:
            return HealthVerdict.BLACKHOLED
        cpu_sustained = all(s.cpu >= CPU_THRESHOLD for s in recent)
        if len(samples) >= self.wedged_window:
            horizon = list(samples)[-self.wedged_window:]
            cpu_pinned_long = all(s.cpu >= CPU_THRESHOLD for s in horizon)
            progressed = horizon[-1].jobs_completed > horizon[0].jobs_completed
            if cpu_pinned_long and not progressed:
                return HealthVerdict.WEDGED
        if cpu_sustained:
            return HealthVerdict.OVERLOADED
        return HealthVerdict.HEALTHY
