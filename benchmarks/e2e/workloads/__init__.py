"""The six workloads, by name, in the order every table prints them.

Each module exposes ``NAME``, ``WHY``, ``build(seed, scale)`` (timed as
set-up), ``drive(ctx)`` (the timed section) and ``collect(ctx, raw)``
(untimed: outputs, checks and per-layer stats as an ``Outcome``).
"""

from benchmarks.e2e.workloads import (
    forecast_sweep,
    ingest_fanout,
    placement_churn,
    portal_storm,
    read_storm,
    region_failover,
)

WORKLOADS = {module.NAME: module for module in (
    portal_storm, read_storm, ingest_fanout, placement_churn,
    forecast_sweep, region_failover)}
