"""Replaying a journal into run state, and the run protocol over it.

Recovery never trusts executor memory — it rebuilds what it knows about
a run purely from the durable record prefix.  :func:`replay` is that
pure function: records in, :class:`RunState` out, no simulator, no
clock, no I/O.  Because a crash can truncate the journal at any fsync
point, replay must yield a *consistent* state for **every** prefix of a
valid record stream — the property test in ``tests/test_durable.py``
hammers exactly that.

The **run protocol** is written here once, for every carrier of a
journaled run (the estate's workflow engine, the ensemble sweep):
:func:`begin` (replay, lease, ``SCHEDULED`` once, ``STARTED`` or
``ADOPTED``), the carrier's own ``CHECKPOINT`` / ``EFFECT`` records,
then :func:`finish` (``DONE`` + release) or :func:`fail` (``FAILED`` +
release).  An executor that dies writes nothing more: its lease lapses
and the next :func:`begin` resumes from what replay proves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.durable import journal as j

#: Run status values, in monotone progress order.  Replaying more
#: records never moves a run *backwards* through this order.
STATUSES = ("unknown", "scheduled", "running", "failed", "done")

_RANK = {status: rank for rank, status in enumerate(STATUSES)}


@dataclass
class StageState:
    """What the journal proves about one workflow stage."""

    node_id: str
    cache_key: Optional[str] = None
    replayable: bool = False
    output: Any = None
    output_repr: str = ""
    finished_at: float = 0.0


@dataclass
class RunState:
    """Everything a recovery executor can know about a run."""

    run_id: str
    status: str = "unknown"
    workflow: Optional[str] = None
    parameters: Dict[str, Any] = field(default_factory=dict)
    owner: Optional[str] = None
    lease: Optional[j.LeaseState] = None
    stages: Dict[str, StageState] = field(default_factory=dict)
    completed: List[str] = field(default_factory=list)
    checkpoint: Optional[Dict[str, Any]] = None
    effects: List[str] = field(default_factory=list)
    adoptions: int = 0
    attempts: int = 0
    failure: Optional[str] = None
    outputs_repr: Optional[str] = None
    last_seq: int = -1
    last_time: float = 0.0

    def _advance(self, status: str) -> None:
        if _RANK[status] >= _RANK[self.status]:
            self.status = status

    @property
    def terminal(self) -> bool:
        """Whether the run reached DONE or FAILED."""
        return self.status in ("done", "failed")

    @property
    def in_flight(self) -> bool:
        """Started but not finished — the orphan candidate condition."""
        return self.status == "running"

    def orphaned_at(self, now: float) -> bool:
        """In flight with no live lease at ``now`` — safe to re-adopt."""
        if not self.in_flight:
            return False
        return self.lease is None or not self.lease.held_at(now)

    def cache_entries(self) -> List[Tuple[str, Any]]:
        """``(cache_key, output)`` pairs replayable without recompute.

        Only stages whose output survived a JSON round trip into the
        journal can be replayed from records alone; the rest rely on
        the content-addressed run cache or are recomputed.
        """
        return [(s.cache_key, s.output) for node in self.completed
                for s in (self.stages[node],)
                if s.replayable and s.cache_key]


def replay(records: Iterable[j.JournalRecord],
           run_id: Optional[str] = None) -> RunState:
    """Fold a record stream (any prefix) into a consistent state."""
    state: Optional[RunState] = None if run_id is None \
        else RunState(run_id=run_id)
    for record in records:
        if state is None:
            state = RunState(run_id=record.run_id)
        if record.run_id != state.run_id or record.seq <= state.last_seq:
            continue  # foreign or stale record; replay is defensive
        state.last_seq = record.seq
        state.last_time = record.time
        p = record.payload
        if record.kind == j.SCHEDULED:
            state.workflow = p.get("workflow")
            state.parameters = dict(p.get("parameters") or {})
            state._advance("scheduled")
        elif record.kind == j.STARTED:
            state.owner = p.get("owner")
            state.attempts += 1
            state._advance("running")
        elif record.kind == j.ADOPTED:
            state.owner = p.get("owner")
            state.adoptions += 1
            state._advance("running")
        elif record.kind == j.LEASE:
            state.lease = j.LeaseState.from_payload(p)
        elif record.kind == j.CHECKPOINT:
            if "node_id" in p:
                node = p["node_id"]
                state.stages[node] = StageState(
                    node_id=node, cache_key=p.get("cache_key"),
                    replayable=bool(p.get("replayable")),
                    output=p.get("output"),
                    output_repr=p.get("output_repr", ""),
                    finished_at=record.time)
                if node not in state.completed:
                    state.completed.append(node)
            else:
                state.checkpoint = dict(p)
        elif record.kind == j.EFFECT:
            key = p.get("key")
            if key is not None and key not in state.effects:
                state.effects.append(key)
        elif record.kind == j.DONE:
            state.outputs_repr = p.get("outputs_repr")
            state._advance("done")
        elif record.kind == j.FAILED:
            state.failure = p.get("error")
            state._advance("failed")
    return state if state is not None else RunState(run_id="?")


def begin(journal: j.RunJournal, owner: str, ttl: float, workflow: str,
          parameters: Dict[str, Any], adopting: bool = False) -> RunState:
    """Start (or resume) an attempt at a journaled run as ``owner``.

    Returns what the journal proved *before* this attempt — the stages,
    checkpoint and effects to resume from.  Takes the lease first
    (:class:`~repro.durable.journal.LeaseError` while another owner's is
    live), writes ``SCHEDULED`` only if the journal never scheduled the
    run, then ``STARTED`` — or ``ADOPTED``, when ``adopting`` a run some
    executor attempted before.
    """
    prior = replay(journal.records(), run_id=journal.run_id)
    journal.acquire(owner, ttl)
    if prior.workflow is None:
        ok, clean = j.jsonable(parameters)
        journal.append(j.SCHEDULED, sync=False, workflow=workflow,
                       parameters=clean if ok else {})
    if adopting and prior.attempts:
        journal.append(j.ADOPTED, owner=owner, previous=prior.owner)
    else:
        journal.append(j.STARTED, owner=owner)
    return prior


def finish(journal: j.RunJournal, owner: str, outputs_repr: str) -> None:
    """The run completed: ``DONE``, then give the lease up."""
    journal.append(j.DONE, outputs_repr=outputs_repr)
    journal.release(owner)


def fail(journal: j.RunJournal, owner: str, error: str,
         **detail: Any) -> None:
    """The run is over without a result: ``FAILED``, lease given up.

    Silent when fenced — the adopter owns the journal now, and the run
    is its to finish or fail.
    """
    try:
        journal.append(j.FAILED, error=error, **detail)
        journal.release(owner)
    except j.LeaseError:
        pass
