"""Checkpointed, journaled ensemble sweeps.

Calibration and GLUE sweeps are the portal's longest-running unit of
work — hundreds of model evaluations — and before this module a mid-
sweep executor crash meant starting the whole batch again.
:class:`DurableSweep` wraps an
:class:`~repro.perf.runner.EnsembleRunner` with:

* a **run journal** in the blob store, begun, failed and finished by
  the run protocol of :mod:`repro.durable.state`, so the sweep's
  existence and progress survive the executor;
* a **checkpoint every N completed parameter sets**: the results-so-far
  go to the payload container and a CHECKPOINT record points at them,
  bounding wasted recompute after a crash to at most one interval;
* **exactly-once effects**: each completed evaluation may publish its
  result under its content-addressed ``run_key``; publication is an
  existence-checked put, so at-least-once replay across crashes never
  applies an effect twice — the MillWheel discipline, keyed by the
  run keys the perf layer's cache uses, computed once per set.

Evaluation is one ``run_many`` batch per attempt, whatever the runner's
backend, its results checkpointed interval by interval.  Crashes are
simulated, not thrown: ``run(..., interrupt_after=k)`` makes the
executor die after ``k`` evaluations of *this attempt* (unsynced journal
tail lost, optionally a torn record left behind) and returns ``None``.
A fresh sweep object pointed at the same journal resumes from the last
checkpoint.  A model that *raises* is not a crash: the run is failed,
its lease given up, and the error propagates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.durable import journal as j
from repro.durable.state import begin, fail, finish
from repro.obs.hub import obs_of
from repro.perf.runner import EnsembleRunner


class DurableSweep:
    """A resumable, effect-deduplicating ensemble sweep.

    ``effects`` is an optional blob container; when given, every
    completed evaluation publishes its result under its ``run_key``
    exactly once across all attempts.  ``owner`` identifies the
    executor in lease records.
    """

    def __init__(self, runner: EnsembleRunner, store: j.JournalStore,
                 sweep_id: str, checkpoint_every: int = 50,
                 effects=None, owner: str = "sweep-executor",
                 lease_ttl: float = 300.0):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.runner = runner
        self.store = store
        self.sweep_id = sweep_id
        self.checkpoint_every = checkpoint_every
        self.effects = effects
        self.owner = owner
        self.lease_ttl = lease_ttl
        # per-attempt counters, reset by each run()
        self.computed = 0
        self.effects_applied = 0
        self.effects_deduped = 0
        self.resumed_from = 0
        self.checkpoints_written = 0

    def run(self, parameter_sets: Sequence[Dict[str, float]],
            interrupt_after: Optional[int] = None,
            torn: bool = False) -> Optional[List[Any]]:
        """Execute (or resume) the sweep; ``None`` on simulated crash.

        Resumption is automatic: if the journal already has a
        CHECKPOINT, the results it points at are loaded and evaluation
        continues from the next parameter set.  ``interrupt_after``
        kills the executor after that many evaluations of this attempt
        (``torn`` leaves a torn record for the next open to truncate).
        A model that raises ends the run ``FAILED`` with the lease given
        up, and the error propagates.
        """
        sim = self.store.sim
        self.computed = 0
        self.effects_applied = 0
        self.effects_deduped = 0
        total = len(parameter_sets)
        journal = self.store.open_or_create(self.sweep_id)
        prior = begin(journal, self.owner, self.lease_ttl,
                      workflow=f"sweep:{self.runner.model_id}",
                      parameters={"runs": total})
        attributes = {"sweep": self.sweep_id, "runs": total,
                      "checkpoint_every": self.checkpoint_every}
        scheduler = self.runner.scheduler
        if scheduler is not None:
            # the sweep rides the scheduling plane as batch-class work;
            # stamping its shard/class here lines durable sweeps up with
            # sched.submit spans from sessions and workflow stages
            attributes["shard"] = scheduler.shard_of(self.runner.model_id)
            attributes["class"] = "batch"
        span = obs_of(sim).tracer.start_span(
            "durable.sweep", kind="perf", attributes=attributes)

        results: List[Any] = []
        start = 0
        if prior.checkpoint is not None:
            start = int(prior.checkpoint.get("completed", 0))
            payload_key = prior.checkpoint.get("payload")
            if payload_key and self.store.has_payload(payload_key):
                results = list(self.store.get_payload(payload_key))[:start]
            else:  # checkpoint record without payload: restart
                start = 0
                results = []
        self.resumed_from = start
        if start:
            obs_of(sim).events.emit("durable.sweep.resumed",
                                    sweep=self.sweep_id, completed=start)
        span.set_attribute("resumed_from", start)

        # one batch up to the crash point, whose run keys serve the cache
        # and the effects, walked one checkpoint interval at a time (chunk
        # invariance and backend-free keys keep every bit); a batch that
        # raises is retried interval by interval (those intervals' lookups,
        # dispatches and spans count twice), so the run fails at the
        # interval that raised with every earlier one checkpointed
        stop = total if interrupt_after is None \
            else min(total, start + interrupt_after)
        attempt = list(parameter_sets[start:stop])
        keys = [self.runner.key_of(params) for params in attempt]
        try:
            values = self.runner.run_many(attempt, capture_errors=True,
                                          keys=keys)
        except Exception as err:
            values = None
            span.set_attribute("batch_failed", f"{type(err).__name__}: {err}")
        index = start
        while index < stop:
            end = min(stop, index + self.checkpoint_every
                      - (index % self.checkpoint_every))
            lo, hi = index - start, end - start
            try:
                chunk = values[lo:hi] if values is not None else \
                    self.runner.run_many(attempt[lo:hi], capture_errors=True,
                                         keys=keys[lo:hi])
            except Exception as err:
                # alive and knows the run is over: a replacement must not
                # have to wait the lease out
                error = f"{type(err).__name__}: {err}"
                fail(journal, self.owner, error, completed=index)
                span.finish(error=error)
                raise
            self.computed += len(chunk)
            for key, value in zip(keys[lo:hi], chunk):
                results.append(value)
                self._apply_effect(journal, key, value)
            if end % self.checkpoint_every == 0:
                self._checkpoint(journal, results, end)
            index = end
        if interrupt_after is not None and self.computed >= interrupt_after:
            lost = journal.crash(torn=torn)
            obs_of(sim).events.emit(
                "durable.sweep.crashed", sweep=self.sweep_id,
                completed=index, lost_records=lost)
            span.finish(error=f"executor crashed after "
                              f"{self.computed} runs")
            return None
        finish(journal, self.owner, f"{len(results)} results")
        span.set_attribute("computed", self.computed)
        span.set_attribute("effects_applied", self.effects_applied)
        span.finish()
        return results

    def _apply_effect(self, journal: j.RunJournal, key: str,
                      value: Any) -> None:
        """Publish the result under its run key, at most once ever."""
        if self.effects is None:
            return
        if self.effects.exists(key):
            self.effects_deduped += 1
            return
        self.effects.put(key, value)
        self.effects_applied += 1
        # bookkeeping only — dedup correctness comes from the existence
        # check above, so EFFECT records ride to the next fsync point
        journal.append(j.EFFECT, sync=False, key=key)

    def _checkpoint(self, journal: j.RunJournal,
                    results: List[Any], completed: int) -> None:
        payload_key = self.store.put_payload(
            f"{self.sweep_id}/ckpt-{completed:06d}", list(results))
        journal.append(j.CHECKPOINT, completed=completed,
                       payload=payload_key)
        self.checkpoints_written += 1
        obs_of(self.store.sim).events.emit(
            "durable.sweep.checkpoint", sweep=self.sweep_id,
            completed=completed)
