"""What every workload shares: the outcome record and small estate helpers."""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.cloud import Flavor, ImageKind, ImageStore, Instance, OpenStackCloud
from repro.dataplane.views import recompute_catchment_stats
from repro.obs.hub import obs_of
from repro.sim import RandomStreams, Simulator

#: The study catchments the data-plane workloads partition their streams by.
CATCHMENTS = ("eden", "morland", "tarland", "machynlleth")

#: Process-global id counters inside ``src/repro``.  Session ids feed the
#: rendezvous hash that picks a control-plane shard, so a pass that ran
#: after another pass (or after the warm-up) would otherwise place
#: sessions differently from a fresh process.  Rewinding them before
#: every build is what makes "same seed, same scale => same digest" hold
#: for the second pass of a run and for the in-process smoke test.
_ID_COUNTERS = (
    ("repro.broker.sessions", "_session_ids", 0),
    ("repro.cloud.instance", "_job_ids", 0),
    ("repro.services.channels", "_conn_ids", 0),
    ("repro.services.wps", "_execution_ids", 0),
    ("repro.services.soap", "_session_ids", 0),
    ("repro.workflow.cloud", "_run_ids", 0),
    ("repro.workflow.engine", "_run_ids", 0),
    ("repro.data.webcam", "_frame_ids", 0),
    ("repro.data.catalog", "_asset_ids", 0),
    ("repro.obs.context", "_trace_ids", 1),
    ("repro.obs.context", "_span_ids", 1),
)


def fresh_ids() -> None:
    """Rewind every process-global id counter to its import-time value.

    A counter that no longer exists is skipped: if ids became state of
    the estate a fresh build already starts them over, and if they did
    not, the run's pass-to-pass digest check says so.
    """
    for module_name, attr, start in _ID_COUNTERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if hasattr(module, attr):
            setattr(module, attr, itertools.count(start))


@dataclass
class Outcome:
    """What one timed pass of a workload produced.

    ``latencies`` holds the simulated latency of every *successful* op;
    ``outputs`` is the deterministic result the digest covers;
    ``checks`` are the pass's own correctness verdicts; ``stats`` are
    per-layer numbers read from the program's public ``stats()`` /
    ``snapshot()`` methods, already under their final metric names.
    """

    sim: Simulator
    attempted: int
    failed: int
    latencies: List[float]
    makespan: float
    outputs: Dict[str, Any]
    checks: Dict[str, bool]
    stats: Dict[str, float] = field(default_factory=dict)
    #: model parameter sets evaluated (the hydrology throughput numerator)
    model_sets: int = 0
    #: host CPU seconds the telemetry scraper metered for itself
    scraper_host_s: float = 0.0

    @property
    def ops(self) -> int:
        """Successful ops — the denominator of every per-op number."""
        return self.attempted - self.failed


def scaled(base: int, scale: float, floor: int = 1) -> int:
    """``base`` op count at ``scale``, never below ``floor``."""
    return max(floor, int(round(base * scale)))


def percentile(ordered: List[float], q: float) -> float:
    """The ``q`` quantile of an ascending list (nearest-rank, upper)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def boot_hosts(sim: Simulator, streams: RandomStreams,
               flavors: Dict[str, Flavor]) -> Dict[str, Instance]:
    """Boot one fixed host per name on a private cloud sized to fit.

    The data-plane and sweep workloads serve from fixed hosts: no Load
    Balancer, no autoscaling and no bounded accept queue, so the only
    queueing a caller sees is the instance's own vCPUs.  The boot delay
    is simulated (and seeded) and elapses here, inside set-up.
    """
    cloud = OpenStackCloud(
        sim, total_vcpus=sum(f.vcpus for f in flavors.values()),
        streams=streams)
    images = ImageStore()
    hosts = {name: cloud.launch(
        images.create(f"{name}-host", ImageKind.GENERIC, size_gb=1.0), flavor)
        for name, flavor in flavors.items()}
    sim.run(until=sim.now + 120.0)
    for name, host in hosts.items():
        if not host.is_serving:
            raise RuntimeError(f"host {name!r} did not boot")
    return hosts


def rest_errors(sim: Simulator) -> float:
    """5xx responses counted by every REST api's server-side RED metrics."""
    snapshot = obs_of(sim).api_metrics.snapshot()
    return float(sum(value for key, value in snapshot.items()
                     if key.endswith(".errors")))


def busy_seconds(instances: Any) -> float:
    """Simulated CPU-busy seconds summed over ``instances``."""
    return float(sum(inst.cpu_busy_seconds for inst in instances))


def placement_stats(lbs: Any, ledger: Any, providers: Any) -> Dict[str, float]:
    """The sched / broker / cloud rows for a Load-Balancer-managed estate."""
    snapshots = [lb.metrics.snapshot() for lb in lbs]
    return {
        "sched.queue_wait_sim_p95_s": max(
            snap.get("session.wait.p95", 0.0) for snap in snapshots),
        "sched.shed": float(sum(
            sum(lb.dispatcher.shed_counts().values()) for lb in lbs)),
        "sched.quota_refused": float(ledger.refusals),
        "broker.scale_ups": float(sum(
            value for snap in snapshots for key, value in snap.items()
            if key.startswith("launch.") and key.count(".") == 1)),
        "broker.migrations": float(sum(
            snap.get("migrations", 0.0) for snap in snapshots)),
        "cloud.busy_sim_s": busy_seconds(
            inst for provider in providers for inst in provider.instances()),
    }


def resilience_stats(metrics: Any) -> Dict[str, float]:
    """The resilience row from a :class:`ResilientClient`'s registry.

    ``attempts_per_op`` is per resilient call (a widget run, a dashboard
    GET, a poll): 1.0 means nothing was ever retried.
    """
    snap = metrics.snapshot()
    return {
        "resilience.attempts_per_op":
            snap.get("attempts", 0.0) / max(1.0, snap.get("requests", 0.0)),
        "resilience.retries": snap.get("retries", 0.0),
        "resilience.breaker_trips": snap.get("breaker.trips", 0.0),
        "resilience.shed": snap.get("shed", 0.0),
    }


def dataplane_stats(plane: Any, lag_max: int) -> Dict[str, float]:
    """The data-plane write-side row (``lag_max`` is sampled by the driver)."""
    return {
        "dataplane.lag_max": float(lag_max),
        "dataplane.redelivered": float(
            sum(consumer.redelivered for consumer in plane.consumers)),
        "dataplane.dlq_depth": float(plane.dlq.depth()),
    }


def views_match_streams(plane: Any) -> bool:
    """Every stats view equals a fresh fold of its stream's raw rows."""
    for catchment in plane.stats.catchments():
        rows = [{"time": event.payload["time"],
                 "value": event.payload["value"]}
                for event in plane.streams.stream(f"obs.{catchment}").read(0)
                if event.kind == "observation"]
        if plane.stats.stats(catchment) != recompute_catchment_stats(
                catchment, rows, plane.stats.window_hours):
            return False
    return True
