"""Durable execution: journaled runs that survive their executor.

The paper's portal promises stakeholders a submitted experiment
*completes*; PR 3's resilience fabric hardened the client path, and
this package hardens the work itself:

* :mod:`repro.durable.journal` — the durable substrate the whole estate
  stands on: the one record log (CRC records, torn-tail truncation) and
  the one lease rule (fencing epochs), plus their first carrier, the
  write-ahead :class:`RunJournal` (fsync points) in its
  :class:`JournalStore` namespace.  Event streams and stream claims
  (:mod:`repro.dataplane`) and the leader election (:mod:`repro.geo`)
  are the other carriers.
* :mod:`repro.durable.state` — pure journal replay into
  :class:`RunState`, consistent for every record prefix, and the run
  protocol every carrier calls: ``begin`` / ``finish`` / ``fail``.
* :mod:`repro.durable.recovery` — :class:`RecoveryManager`: orphan
  scanning, lease-expiry-safe re-adoption on replacement executors.
* :mod:`repro.durable.ensemble` — :class:`DurableSweep`: checkpointed
  parameter sweeps with exactly-once effect publication.
"""

from repro.durable.ensemble import DurableSweep
from repro.durable.journal import (
    ADOPTED,
    CHECKPOINT,
    DONE,
    EFFECT,
    FAILED,
    Fenced,
    JournalRecord,
    JournalStore,
    LEASE,
    LeaseError,
    LeaseState,
    RunJournal,
    SCHEDULED,
    STARTED,
    jsonable,
)
from repro.durable.recovery import RecoveryManager, RecoveryReport
from repro.durable.state import RunState, StageState, replay

__all__ = [
    "ADOPTED",
    "CHECKPOINT",
    "DONE",
    "DurableSweep",
    "EFFECT",
    "FAILED",
    "Fenced",
    "JournalRecord",
    "JournalStore",
    "LEASE",
    "LeaseError",
    "LeaseState",
    "RecoveryManager",
    "RecoveryReport",
    "RunJournal",
    "RunState",
    "SCHEDULED",
    "STARTED",
    "StageState",
    "jsonable",
    "replay",
]
