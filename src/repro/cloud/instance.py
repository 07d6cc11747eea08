"""Instance runtime: lifecycle, job execution, resource statistics.

An :class:`Instance` is the unit the Resource Broker hands to user
sessions and the Load Balancer watches.  It models:

* the usual IaaS lifecycle (``PENDING -> RUNNING -> TERMINATED`` with
  ``DEGRADED``/``FAILED`` fault branches),
* a multi-server FIFO execution engine (one server per vCPU) whose job
  service times honour flavor speed and image run-speed factors — queueing
  under load is what makes the LB's responsiveness heuristics meaningful,
* cumulative resource counters (CPU busy-time, disk I/O, network in/out)
  that the health monitor samples, including the two failure signatures
  the paper names: *sustained high CPU* and *zero outbound traffic while
  receiving inbound*.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.cloud.errors import InvalidStateError
from repro.cloud.flavors import Flavor
from repro.cloud.images import MachineImage
from repro.obs.hub import obs_of
from repro.sim import Signal, Simulator

_job_ids = itertools.count()
#: Disk I/O every job charges to its instance's counters.
JOB_DISK_READ_MB = 1.0
JOB_DISK_WRITE_MB = 0.5


class InstanceState(enum.Enum):
    """Lifecycle states of a simulated instance."""

    PENDING = "pending"
    RUNNING = "running"
    DEGRADED = "degraded"
    FAILED = "failed"
    TERMINATED = "terminated"


@dataclass
class JobOutcome:
    """Result of a job: either a value or the error that sank it."""

    job_id: str
    succeeded: bool
    value: Any = None
    error: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) execution time excluding queueing."""
        return self.finished_at - self.started_at


class Job:
    """A unit of compute submitted to an instance.

    ``cost`` is CPU-seconds on the reference core; the actual service time
    divides by the instance's effective speed.  ``compute`` runs when the
    job completes and produces the job's value (this is where a real
    TOPMODEL run happens — instantaneous in host time, charged in
    simulated time).  Each completed job adds ``JOB_DISK_READ_MB`` /
    ``JOB_DISK_WRITE_MB`` to the instance I/O counters.
    """

    __slots__ = ("job_id", "name", "cost", "compute", "done", "trace",
                 "span")

    def __init__(self, cost: float, compute: Optional[Callable[[], Any]] = None,
                 name: str = "job"):
        if cost < 0:
            raise ValueError("job cost must be non-negative")
        self.job_id = f"job-{next(_job_ids):06d}"
        self.name = name
        self.cost = cost
        self.compute = compute
        self.done: Optional[Signal] = None  # attached at submission
        self.trace = None   # optional SpanContext set by the submitter
        self.span = None    # the execution span, opened at submission


class Instance:
    """A simulated virtual machine.

    Instances are created by a :class:`~repro.cloud.provider.CloudProvider`
    (never directly by application code) in ``PENDING`` state; the provider
    transitions them to ``RUNNING`` once the boot delay elapses and fires
    :attr:`ready`.
    """

    def __init__(self, sim: Simulator, instance_id: str, provider_name: str,
                 image: MachineImage, flavor: Flavor):
        self._sim = sim
        self.instance_id = instance_id
        self.provider_name = provider_name
        self.image = image
        self.flavor = flavor
        self.address = f"{instance_id}.{provider_name}.evop"
        self.state = InstanceState.PENDING
        self.launched_at = sim.now
        self.ready: Signal = sim.signal(f"{instance_id}.ready")
        self.terminated: Signal = sim.signal(f"{instance_id}.terminated")

        # execution engine
        self._queue: Deque[Job] = deque()
        #: when set, submissions beyond this queue depth are rejected
        #: with a fast 'queue full' failure (server back-pressure); the
        #: Load Balancer configures this on the replicas it manages
        self.max_queue: Optional[int] = None
        self._busy_servers = 0
        self._degradation = 1.0       # service-speed multiplier (<1 when degraded)
        self._running_jobs: Dict[str, Any] = {}   # job_id -> timer EventHandle

        # cumulative resource counters (health monitor reads these)
        self.cpu_busy_seconds = 0.0
        self._busy_since: Dict[str, float] = {}   # job_id -> start time
        self.disk_read_mb = 0.0
        self.disk_write_mb = 0.0
        self.net_bytes_in = 0.0
        self.net_bytes_out = 0.0
        self.network_blackholed = False
        #: the replica pool ranking this instance by health and load (set
        #: by ``ManagedService.add_replica``); :meth:`_rank_changed`
        #: tells it whenever either input of that ranking moves
        self._pool: Optional[Any] = None

        # what payload the guest carries (models installed post-boot on
        # incubators; streamlined bundles start with their bundled set)
        self.installed_models: Set[str] = set(image.bundled_models)
        self.jobs_completed = 0
        self.jobs_failed = 0

    # -- state predicates ----------------------------------------------------

    @property
    def is_serving(self) -> bool:
        """Whether the instance can accept and answer requests."""
        return self.state in (InstanceState.RUNNING, InstanceState.DEGRADED)

    @property
    def is_gone(self) -> bool:
        """Whether the instance is failed or terminated."""
        return self.state in (InstanceState.FAILED, InstanceState.TERMINATED)

    @property
    def effective_speed(self) -> float:
        """Per-server service speed (reference-core multiples)."""
        return (self.flavor.compute_speed * self.image.run_speed_factor
                * self._degradation)

    def cpu_utilization(self) -> float:
        """Instantaneous CPU utilisation in [0, 1].

        A degraded instance reports saturated CPU regardless of queue
        state — reproducing the 'sustained high CPU utilisation'
        signature the paper's LB watches for.
        """
        if self.state == InstanceState.DEGRADED:
            return 1.0
        if not self.is_serving:
            return 0.0
        return min(1.0, self._busy_servers / self.flavor.vcpus)

    def queue_length(self) -> int:
        """Jobs waiting (not yet executing)."""
        return len(self._queue)

    def load(self) -> float:
        """Busy servers plus queued jobs, per vCPU — the LB's load metric."""
        return (self._busy_servers + len(self._queue)) / self.flavor.vcpus

    def _rank_changed(self) -> None:
        """Tell the owning pool that :meth:`load` or health just changed.

        Called wherever ``state`` or ``network_blackholed`` is assigned
        and wherever ``load()`` moves: a queue append in :meth:`submit`
        and a job finishing.  ``_dispatch`` only moves a job from the
        queue to a server, and ``_abort_all_work`` only runs once the
        state is already FAILED/TERMINATED (unranked for good).
        """
        if self._pool is not None:
            self._pool.replica_changed(self)

    # -- lifecycle (driven by the provider / fault injector) -----------------

    def _emit(self, kind: str, **fields) -> None:
        obs_of(self._sim).events.emit(
            kind, instance=self.instance_id, provider=self.provider_name,
            **fields)

    def _mark_running(self) -> None:
        if self.state != InstanceState.PENDING:
            return  # crashed or terminated while booting
        self.state = InstanceState.RUNNING
        self._rank_changed()
        self._emit("instance.running",
                   boot_seconds=self._sim.now - self.launched_at)
        self.ready.fire(self)

    def _mark_terminated(self) -> None:
        if self.is_gone:
            return
        previous = self.state
        self.state = InstanceState.TERMINATED
        self._rank_changed()
        self._emit("instance.terminated", previous=previous.value)
        self._abort_all_work("instance terminated")
        if previous == InstanceState.PENDING and not self.ready.fired:
            self.ready.fire(None)
        self.terminated.fire(self)

    def _mark_failed(self, cause: str) -> None:
        if self.is_gone:
            return
        previous = self.state
        self.state = InstanceState.FAILED
        self._rank_changed()
        self._emit("instance.failed", previous=previous.value, cause=cause)
        self._abort_all_work(cause)
        if previous == InstanceState.PENDING and not self.ready.fired:
            self.ready.fire(None)
        self.terminated.fire(self)

    def _degrade(self, speed_multiplier: float = 0.1) -> None:
        if not self.is_serving:
            raise InvalidStateError(
                f"cannot degrade {self.instance_id} in state {self.state}")
        self.state = InstanceState.DEGRADED
        self._rank_changed()
        self._emit("instance.degraded", speed_multiplier=speed_multiplier)
        self._reschedule_running_jobs(speed_multiplier)

    def _blackhole(self) -> None:
        if not self.is_serving:
            raise InvalidStateError(
                f"cannot blackhole {self.instance_id} in state {self.state}")
        self.network_blackholed = True
        self._rank_changed()
        self._emit("instance.blackholed")

    def _heal(self) -> None:
        """Undo degrade/blackhole faults (a crash is not healable)."""
        if not self.is_serving:
            raise InvalidStateError(
                f"cannot heal {self.instance_id} in state {self.state}")
        if self.network_blackholed:
            self.network_blackholed = False
            self._rank_changed()
            self._emit("instance.healed", fault="blackhole")
        if self.state == InstanceState.DEGRADED:
            self.state = InstanceState.RUNNING
            self._rank_changed()
            self._emit("instance.healed", fault="degrade")
            self._reschedule_running_jobs(1.0)

    def _reschedule_running_jobs(self, new_degradation: float) -> None:
        """Stretch in-flight job completions when the speed changes."""
        old_speed = self.effective_speed
        self._degradation = new_degradation
        new_speed = self.effective_speed
        if not self._running_jobs or old_speed == new_speed:
            return
        stretch = old_speed / new_speed
        for job_id, (handle, job, finish_fn) in list(self._running_jobs.items()):
            remaining = handle.when - self._sim.now
            handle.cancel()
            new_handle = self._sim.schedule(remaining * stretch, finish_fn)
            self._running_jobs[job_id] = (new_handle, job, finish_fn)

    def _abort_all_work(self, cause: str) -> None:
        for job_id, (handle, job, _finish) in list(self._running_jobs.items()):
            handle.cancel()
            self._account_cpu(job_id)
            self._fail_job(job, cause)
        self._running_jobs.clear()
        self._busy_servers = 0
        while self._queue:
            self._fail_job(self._queue.popleft(), cause)

    def _fail_job(self, job: Job, cause: str) -> None:
        self.jobs_failed += 1
        if job.span is not None and not job.span.finished:
            job.span.annotate("aborted", cause=cause)
            job.span.finish(error=cause)
        outcome = JobOutcome(job_id=job.job_id, succeeded=False, error=cause,
                             started_at=self._sim.now,
                             finished_at=self._sim.now)
        if job.done is not None and not job.done.fired:
            job.done.fire(outcome)

    # -- job execution --------------------------------------------------------

    def submit(self, job: Job) -> Signal:
        """Queue ``job``; returns a signal fired with its :class:`JobOutcome`.

        Submitting to a non-serving instance fails the job immediately
        (callers observe it through the outcome, mirroring a connection
        refused at a dead VM).
        """
        job.done = self._sim.signal(f"{job.job_id}.done")
        if job.trace is not None:
            job.span = obs_of(self._sim).tracer.start_span(
                f"job {job.name}", parent=job.trace, kind="job",
                attributes={"instance": self.instance_id,
                            "job_id": job.job_id, "cost": job.cost})
        if not self.is_serving:
            self._fail_job(job, f"instance {self.instance_id} not serving")
            return job.done
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            self._fail_job(job, "queue full")
            return job.done
        self._queue.append(job)
        self._rank_changed()
        self._dispatch()
        return job.done

    def install_model(self, model_name: str) -> None:
        """Record that a model was installed on this (incubator) instance."""
        self.installed_models.add(model_name)

    def _dispatch(self) -> None:
        while self._queue and self._busy_servers < self.flavor.vcpus:
            job = self._queue.popleft()
            self._start_job(job)

    def _start_job(self, job: Job) -> None:
        self._busy_servers += 1
        started = self._sim.now
        self._busy_since[job.job_id] = started
        duration = job.cost / self.effective_speed if job.cost > 0 else 0.0
        if job.span is not None:
            job.span.set_attribute("queue_wait", started - job.span.start)

        def finish() -> None:
            self._running_jobs.pop(job.job_id, None)
            self._busy_servers -= 1
            self._rank_changed()
            self._account_cpu(job.job_id)
            self.disk_read_mb += JOB_DISK_READ_MB
            self.disk_write_mb += JOB_DISK_WRITE_MB
            try:
                value = self._compute(job)
            except Exception as err:  # noqa: BLE001 - surfaced in outcome
                self._fail_job(job, f"job raised: {err}")
            else:
                self.jobs_completed += 1
                if job.span is not None and not job.span.finished:
                    job.span.finish()
                outcome = JobOutcome(job_id=job.job_id, succeeded=True,
                                     value=value, started_at=started,
                                     finished_at=self._sim.now)
                job.done.fire(outcome)
            self._dispatch()

        handle = self._sim.schedule(duration, finish)
        self._running_jobs[job.job_id] = (handle, job, finish)

    def _compute(self, job: Job) -> Any:
        """Run the job's compute, scoping its span for nested tracing.

        Activation lets host-instantaneous work done inside ``compute``
        (a local workflow engine, a model run) parent any spans it
        starts under this job's span without explicit plumbing.
        """
        if job.compute is None:
            return None
        if job.span is None:
            return job.compute()
        with obs_of(self._sim).tracer.activate(job.span):
            return job.compute()

    def _account_cpu(self, job_id: str) -> None:
        started = self._busy_since.pop(job_id, None)
        if started is not None:
            self.cpu_busy_seconds += self._sim.now - started

    # -- network accounting (called by the transport layer) -------------------

    def record_bytes_in(self, n: float) -> None:
        """Count inbound bytes delivered to this instance."""
        self.net_bytes_in += n

    def record_bytes_out(self, n: float) -> None:
        """Count outbound bytes, unless the NIC is blackholed."""
        if not self.network_blackholed:
            self.net_bytes_out += n

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Point-in-time resource statistics (the CloudWatch-ish view)."""
        return {
            "cpu_utilization": self.cpu_utilization(),
            "queue_length": float(self.queue_length()),
            "load": self.load(),
            "disk_read_mb": self.disk_read_mb,
            "disk_write_mb": self.disk_write_mb,
            "net_bytes_in": self.net_bytes_in,
            "net_bytes_out": self.net_bytes_out,
            "jobs_completed": float(self.jobs_completed),
            "jobs_failed": float(self.jobs_failed),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Instance {self.instance_id} {self.state.value} "
                f"{self.flavor.name} img={self.image.name}>")
