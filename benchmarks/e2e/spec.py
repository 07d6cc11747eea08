"""The names every later issue uses: metrics, clocks, units, bounds.

``BENCHMARK.json`` at the repo root is this table rendered by
:func:`benchmark_json`; the smoke test fails if the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from benchmarks.e2e.trace import TRACED
from benchmarks.e2e.workloads import WORKLOADS

#: seconds one driver run measures (``--seconds``)
RUN_SECONDS = 20
#: op-count multiplier of one pass; 1.0 is the 6-14 host-CPU-s size
DEFAULT_SCALE = 0.2
#: the warm-up pass runs at this fraction of the pass scale
WARMUP_FRACTION = 0.25
#: relative tolerance of a sim metric between two runs of one seed
SIM_EXACT = 1e-9

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


@dataclass(frozen=True)
class Metric:
    """One reported number: which clock it is on and which way is better."""

    name: str
    unit: str
    better: str
    clock: str = "sim"
    #: share of the baseline median it may worsen by in BENCHMARK.json.
    #: The driver varies the seed, and what calibration leaves of a shared
    #: box's slow phases is a spread of 5-12% between runs, so the host
    #: time bounds are the widest the contract allows; the sim bounds are
    #: many times the spread across seeds, which is under 2.5%
    bound: float = 0.0
    #: the same, for ``--compare`` / ``--selfcheck``, which pair runs of
    #: one seed (a sim metric is held to ``SIM_EXACT`` there instead)
    paired_bound: float = 0.0
    #: a worsening smaller than this (in the metric's unit) never counts
    floor: float = 0.0


#: Same set on every workload.  ``fail_share`` is not in this list: the
#: result line's own ``failed`` / ``attempted`` carry it, because an
#: end-to-end metric here may never read 0 and the baseline fails no op.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.25, 0.15, floor=0.10),
    Metric("host_us_per_op", "us", "lower", "host", 0.25, 0.10),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.10, 0.10),
    Metric("sim_p50_s", "s", "lower", "sim", 0.10),
    Metric("sim_p99_s", "s", "lower", "sim", 0.10),
    Metric("sim_makespan_s", "s", "lower", "sim", 0.10),
)

#: Layers whose simulated time the program's own ``obs`` spans cover.
SPAN_LAYERS = ("services.transport", "services.rest", "resilience", "cloud",
               "broker", "sched", "perf", "durable")

_EXTRAS: Tuple[Metric, ...] = (
    Metric("sim.events_per_op", "count", "lower"),
    Metric("sim.calendar_peak", "count", "lower"),
    Metric("services.transport.timeouts", "count", "lower"),
    Metric("services.rest.not_modified_ratio", "ratio", "higher"),
    Metric("services.rest.status_5xx", "count", "lower"),
    Metric("services.channels.deliveries_per_op", "count", "lower"),
    Metric("tenancy.throttled", "count", "lower"),
    Metric("tenancy.jain", "ratio", "higher"),
    Metric("resilience.attempts_per_op", "count", "lower"),
    Metric("resilience.retries", "count", "lower"),
    Metric("resilience.breaker_trips", "count", "lower"),
    Metric("resilience.shed", "count", "lower"),
    Metric("sched.queue_wait_sim_p95_s", "s", "lower"),
    Metric("sched.shed", "count", "lower"),
    Metric("sched.quota_refused", "count", "lower"),
    Metric("broker.scale_ups", "count", "lower"),
    Metric("broker.migrations", "count", "lower"),
    Metric("cloud.busy_sim_s", "s", "lower"),
    Metric("cloud.cost_usd", "usd", "lower"),
    Metric("cloud.blob_puts_per_op", "count", "lower"),
    Metric("hydrology.sets_per_host_s", "1/s", "higher", "host"),
    Metric("perf.cache_hit_ratio", "ratio", "higher"),
    Metric("perf.chunks_dispatched", "count", "lower"),
    Metric("durable.records_per_op", "count", "lower"),
    Metric("durable.effects_deduped", "count", "lower"),
    Metric("dataplane.lag_max", "count", "lower"),
    Metric("dataplane.redelivered", "count", "lower"),
    Metric("dataplane.dlq_depth", "count", "lower"),
    Metric("dataplane.read_self_us_per_op", "us", "lower", "host"),
    Metric("geo.rpo_sim_s", "s", "lower"),
    Metric("geo.reelection_sim_s", "s", "lower"),
    Metric("geo.max_replication_lag_sim_s", "s", "lower"),
    Metric("geo.ledger_overcommits", "count", "lower"),
    Metric("obs.spans_per_op", "count", "lower"),
    Metric("obs.scraper_self_share", "ratio", "lower", "host"),
    Metric("obs.series", "count", "lower"),
    Metric("obs.events_dropped", "count", "lower"),
    Metric("portal.widget_errors", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower", "host"),
    Metric("trace.unattributed_share", "ratio", "lower", "host"),
)


def _per_layer() -> Tuple[Metric, ...]:
    rows: List[Metric] = []
    for layer in TRACED:
        rows.append(Metric(f"{layer}.calls", "count", "lower"))
        rows.append(Metric(f"{layer}.self_us_per_op", "us", "lower", "host"))
        if layer in SPAN_LAYERS:
            rows.append(Metric(f"{layer}.sim_s_per_op", "s", "lower"))
    return tuple(rows) + _EXTRAS


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def benchmark_json() -> Dict[str, Any]:
    """The contract file, rendered from the tables above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": module.WHY}
                      for name, module in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
