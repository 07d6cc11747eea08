"""repro.geo — the geo-distributed estate.

Runs the full stack across 1–3 simulated regions; from two up, any
single region is expendable:

* :mod:`repro.geo.topology` — the shared region map: status verdicts,
  ring-ordered proximity, transition history.
* :mod:`repro.geo.replication` — async blob/warehouse replication on
  the journal substrate, vector-versioned, with measurable lag
  (the RPO knob).
* :mod:`repro.geo.election` — leases-based leader election on the
  durable journal lease protocol; monotonic terms are the fencing
  tokens.
* :mod:`repro.geo.ledger` — the estate's one
  :class:`~repro.sched.ledger.CapacityLedger`: leader-only admission,
  fenced stale grants, never a double-commit.
* :mod:`repro.geo.routing` — nearest-healthy sticky session routing
  with spillover past DEGRADED regions, plus the RFC-7807 ``503``
  region guard.
* :mod:`repro.geo.failover` — whole-region verdicts, session
  evacuation, durable-run re-adoption, measured RTO.
* :mod:`repro.geo.estate` — the builder that wires it all, one region
  or three by the same path.
"""

from repro.geo.election import LeaderElection
from repro.geo.estate import REGIONS, GeoEstate
from repro.geo.failover import FailoverCoordinator, FailoverReport
from repro.geo.ledger import GeoLedger, RegionLedgerHandle
from repro.geo.replication import Replicator, ShippedRecord, VersionVector
from repro.geo.routing import GeoRouter, RegionGuard
from repro.geo.topology import (
    RegionStatus,
    RegionTopology,
    RegionTransition,
    qualify,
)

__all__ = [
    "FailoverCoordinator",
    "FailoverReport",
    "GeoEstate",
    "GeoLedger",
    "GeoRouter",
    "LeaderElection",
    "REGIONS",
    "RegionGuard",
    "RegionLedgerHandle",
    "RegionStatus",
    "RegionTopology",
    "RegionTransition",
    "Replicator",
    "ShippedRecord",
    "VersionVector",
    "qualify",
]
