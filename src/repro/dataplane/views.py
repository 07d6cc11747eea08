"""Materialized read models, updated incrementally, pinned to recompute.

The CQRS promise is that a view maintained event-by-event equals the
view you would get by recomputing from the raw rows.  With floats that
is only true if the *fold order* matches: ``sum`` over a window must
accumulate left-to-right in event-time order both incrementally and in
the recompute.  :func:`fold_values` is that single fold, used by the
incremental path (append extends the fold; eviction re-folds the
remaining window from scratch) and by :func:`recompute_catchment_stats`
alike — which is what makes the bench's bit-identity assertion hold.

Views deduplicate by ``(stream, seq)``: consumers deliver at least
once, and replay-based rebuild delivers everything again.  All state an
event touches is keyed by its stream, so the order in which different
partitions drain never changes a view's contents.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.dataplane.events import Event
from repro.perf.keys import Sized, content_key

#: Rolling-statistics window over observation event time, in hours.
STATS_WINDOW_HOURS = 24.0


def fold_values(values) -> Tuple[int, float, Optional[float], Optional[float]]:
    """The one left-to-right fold: ``(count, sum, min, max)``.

    Both the incremental view and the recompute arm call this (or
    extend its accumulation one value at a time, which is the same
    operation), so their float results are bit-identical.
    """
    count = 0
    total = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None
    for v in values:
        count += 1
        total += v
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
    return count, total, lo, hi


def stats_document(catchment: str, count: int, total: float,
                   lo: Optional[float], hi: Optional[float],
                   latest_time: Optional[float],
                   window_hours: float = STATS_WINDOW_HOURS
                   ) -> Dict[str, Any]:
    """The canonical stats rendering both arms serve."""
    return {
        "catchment": catchment,
        "windowHours": window_hours,
        "count": count,
        "sum": total,
        "mean": (total / count) if count else None,
        "min": lo,
        "max": hi,
        "latestTime": latest_time,
    }


def recompute_catchment_stats(catchment: str,
                              rows: List[Dict[str, Any]],
                              window_hours: float = STATS_WINDOW_HOURS
                              ) -> Dict[str, Any]:
    """Stats for ``catchment`` from raw observation rows (the arm the
    views are pinned against).

    ``rows`` are observation dicts with ``time`` and ``value`` keys, in
    event-time order — the same order the event stream delivers them.
    """
    ordered = [r for r in rows]
    latest = ordered[-1]["time"] if ordered else None
    if latest is not None:
        horizon = latest - window_hours * 3600.0
        ordered = [r for r in ordered if r["time"] >= horizon]
    count, total, lo, hi = fold_values(r["value"] for r in ordered)
    return stats_document(catchment, count, total, lo, hi, latest,
                          window_hours)


class MaterializedView:
    """Base class: sequence dedup, revision counting, ETags.

    ``apply`` is idempotent under redelivery — an event at or below the
    stream's applied high-water mark is dropped.  ``revision`` bumps on
    every state change, which is what the read API's ETags key off.

    Read methods hand back the *materialized* document — built once per
    change and shared between readers until the next ``_apply`` or
    ``reset`` replaces it.  A document (a row, a stats document) is a
    :class:`~repro.perf.keys.Sized`: it is rendered for the wire once
    per change, and a change re-renders only the documents it replaced.
    A caller that wants to mutate one copies it first; the read API
    puts ``.copy()`` of each document it serves in a response body, so
    a client cannot reach the view through a body and the copy carries
    the size.
    """

    name = "view"

    def __init__(self):
        self._positions: Dict[str, int] = {}
        self.revision = 0
        self.applied = 0
        self.duplicates = 0

    def apply(self, event: Event) -> bool:
        """Apply one event; ``False`` when it was a duplicate."""
        seen = self._positions.get(event.stream, -1)
        if event.seq <= seen:
            self.duplicates += 1
            return False
        self._apply(event)
        self._positions[event.stream] = event.seq
        self.revision += 1
        self.applied += 1
        return True

    def _apply(self, event: Event) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all state (the rebuild-from-replay entry point)."""
        self._positions = {}
        self.revision = 0
        self.applied = 0
        self.duplicates = 0


class LatestObservationView(MaterializedView):
    """Per-procedure latest observation (the SOS dashboard table).

    Keeps the observation with the greatest event time per procedure —
    backfill events older than the current latest never regress it.
    """

    name = "latest"

    def __init__(self):
        super().__init__()
        self._latest: Dict[str, Dict[str, Any]] = {}
        self._documents: Dict[str, Sized] = {}
        self._rows: Optional[List[Sized]] = None

    def _apply(self, event: Event) -> None:
        if event.kind != "observation":
            return
        row = dict(event.payload)
        current = self._latest.get(event.key)
        if current is None or row["time"] >= current["time"]:
            self._latest[event.key] = row
            self._documents.pop(event.key, None)
            self._rows = None

    def latest(self, procedure: str) -> Optional[Dict[str, Any]]:
        return self._latest.get(procedure)

    def rows(self) -> List[Sized]:
        """All latest rows, keyed and sorted by procedure id."""
        if self._rows is None:
            documents = self._documents
            for procedure in self._latest.keys() - documents.keys():
                documents[procedure] = Sized(self._latest[procedure],
                                             procedure=procedure)
            self._rows = [documents[p] for p in sorted(documents)]
        return self._rows

    def reset(self) -> None:
        super().reset()
        self._latest = {}
        self._documents = {}
        self._rows = None


class CatchmentStatsView(MaterializedView):
    """Per-catchment rolling stats over a sliding event-time window.

    The incremental contract: appending a value extends the running
    fold exactly as :func:`fold_values` would have; evicting expired
    values re-folds the surviving window from scratch.  Either way the
    resulting ``(count, sum, min, max)`` is what a full recompute over
    the same rows produces, bit for bit.
    """

    name = "stats"

    def __init__(self):
        super().__init__()
        self.window_hours = STATS_WINDOW_HOURS
        self._windows: Dict[str, deque] = {}
        self._sums: Dict[str, float] = {}
        self._latest_time: Dict[str, Optional[float]] = {}
        self._revisions: Dict[str, int] = {}
        self._documents: Dict[str, Sized] = {}

    def _apply(self, event: Event) -> None:
        if event.kind != "observation":
            return
        row = event.payload
        catchment = row.get("catchment") or event.key
        self._documents.pop(catchment, None)
        window = self._windows.setdefault(catchment, deque())
        window.append((row["time"], row["value"]))
        latest = self._latest_time.get(catchment)
        if latest is None or row["time"] > latest:
            self._latest_time[catchment] = row["time"]
        horizon = self._latest_time[catchment] - self.window_hours * 3600.0
        if window and window[0][0] < horizon:
            # Eviction: drop expired rows, then re-fold the survivors so
            # the float accumulation matches a from-scratch recompute.
            while window and window[0][0] < horizon:
                window.popleft()
            _, total, _, _ = fold_values(v for _, v in window)
            self._sums[catchment] = total
        else:
            # Pure append: extend the fold by one term, which is the
            # same operation fold_values performs last.
            self._sums[catchment] = self._sums.get(catchment, 0.0) \
                + row["value"]
        self._revisions[catchment] = self._revisions.get(catchment, 0) + 1

    def stats(self, catchment: str) -> Optional[Sized]:
        """The materialized stats document, or ``None`` if unknown."""
        document = self._documents.get(catchment)
        if document is None:
            window = self._windows.get(catchment)
            if window is None:
                return None
            values = [v for _, v in window]
            count = len(values)
            lo = min(values) if values else None
            hi = max(values) if values else None
            document = self._documents[catchment] = Sized(stats_document(
                catchment, count, self._sums.get(catchment, 0.0), lo, hi,
                self._latest_time.get(catchment), self.window_hours))
        return document

    def catchments(self) -> List[str]:
        return sorted(self._windows)

    def catchment_revision(self, catchment: str) -> int:
        """Per-catchment change counter (the stats route's ETag key)."""
        return self._revisions.get(catchment, 0)

    def reset(self) -> None:
        super().reset()
        self._windows = {}
        self._sums = {}
        self._latest_time = {}
        self._revisions = {}
        self._documents = {}


class RunSummaryView(MaterializedView):
    """Index of model runs: submitted / finished, with result summaries.

    An event re-copies the one row it touched, never the whole list.
    """

    name = "runs"

    def __init__(self):
        super().__init__()
        self._runs: Dict[str, Dict[str, Any]] = {}
        self._position: Dict[str, int] = {}
        self._built: List[Sized] = []
        self._rows: Optional[List[Sized]] = None

    def _apply(self, event: Event) -> None:
        if event.kind not in ("run.submitted", "run.finished",
                              "run.failed"):
            return
        self._rows = None
        run_id = event.key
        entry = self._runs.get(run_id)
        if entry is None:
            entry = {"runId": run_id, "status": "submitted"}
            self._runs[run_id] = entry
        entry.update(event.payload)
        if event.kind == "run.finished":
            entry["status"] = "finished"
        elif event.kind == "run.failed":
            entry["status"] = "failed"
        # a fresh row object (appended on first sight): lists handed out
        # earlier keep the old one
        position = self._position.setdefault(run_id, len(self._built))
        self._built[position:position + 1] = [Sized(entry)]

    def run(self, run_id: str) -> Optional[Dict[str, Any]]:
        return self._runs.get(run_id)

    def rows(self) -> List[Sized]:
        """All runs, in first-seen order (stable pagination keys)."""
        if self._rows is None:
            self._rows = list(self._built)
        return self._rows

    def reset(self) -> None:
        super().reset()
        self._runs = {}
        self._position = {}
        self._built = []
        self._rows = None


def view_fingerprint(view: MaterializedView) -> str:
    """A content hash of a view's user-visible state (rebuild pinning)."""
    if isinstance(view, CatchmentStatsView):
        state: Any = {c: view.stats(c) for c in view.catchments()}
    elif isinstance(view, LatestObservationView):
        state = view.rows()
    elif isinstance(view, RunSummaryView):
        state = view.rows()
    else:  # pragma: no cover - future view types
        state = repr(view.__dict__)
    return content_key(state)
