"""Shared helpers for the benchmark suite.

Every bench reproduces one figure or quantified claim of the paper (see
DESIGN.md's experiment index).  Benches run the experiment once under
``benchmark.pedantic``, print the table/series the paper reports, and
assert the *shape* — who wins, roughly by how much, where crossovers
fall.  Once is enough on the simulated clock only: the discrete-event
simulations are deterministic, so their figures repeat exactly.  A
figure read off the *host* clock does not, so it is taken by
:func:`stopwatch` — the one place outside ``benchmarks/e2e`` that reads
a host clock — and quoted as a median with its quartiles.

Six benches keep an artifact, ``BENCH_<name>.json`` at the repo root.
Each exposes ``run()`` (full scale; prints its tables; returns a dict
with an ``exact`` half — simulated figures and counts — and a ``host``
half of :func:`spread` figures) and ``check(result)`` (failure strings),
and has two callers: its pytest entry, which gates, writes nothing and
holds the committed file's exact half equal to this run's
(:func:`assert_committed`), and ``python -m benchmarks``, the only
writer (:func:`write_result`).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from benchmarks.e2e.compare import quartiles
from repro.obs.export import summarize_spans

#: where the ``BENCH_<name>.json`` artifacts live
RESULTS_DIR = Path(__file__).resolve().parent.parent


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Print an aligned table (visible with ``pytest -s``)."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def assert_each_was_computed(process, distinct: int) -> None:
    """Every distinct input set missed the process's result memo.

    A key that confused two input sets would answer the second from the
    first's entry and the table would silently repeat a neighbour's
    hydrograph; the miss count makes that a failed job instead.
    """
    stats = process.results.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == \
        (distinct, 0, distinct), stats


def trace_summary(source, title: str = "trace summary",
                  min_count: int = 1) -> Dict[str, Dict[str, float]]:
    """Print per-span-name p50/p95/p99 (simulated seconds) and return it.

    ``source`` is a :class:`~repro.obs.tracer.Tracer` or any iterable of
    spans.  Span names seen fewer than ``min_count`` times are kept in
    the returned summary but left out of the printed table.
    """
    spans = source.spans() if hasattr(source, "spans") else list(source)
    summary = summarize_spans(spans)
    rows = [
        [name, stats["count"], stats["errors"],
         f"{stats['error_rate']:.1%}", stats["p50"],
         stats["p95"], stats["p99"]]
        for name, stats in summary.items()
        if stats["count"] >= min_count
    ]
    print_table(title,
                ["span", "count", "errors", "err%", "p50 s", "p95 s",
                 "p99 s"],
                rows)
    return summary


# -- the host clock ------------------------------------------------------------


#: the clock every host figure is read off: this process's CPU time
CPU = "process_time"
#: readings the stopwatch takes of each arm
READINGS = 5


def spread(readings: Sequence[float]) -> Dict[str, Any]:
    """One host figure, in the form every artifact carries it."""
    q1, median, q3 = quartiles(list(readings))
    return {"median": median, "q1": q1, "q3": q3, "repeats": len(readings),
            "clock": CPU, "readings": list(readings)}


def ratio(over: Dict[str, Any], under: Dict[str, Any]) -> Dict[str, Any]:
    """``over / under``, reading by reading: the arms of one stopwatch
    interleave, so the i-th readings of two arms shared a moment on the
    box and their ratio cancels what that moment cost both (median over
    median does not: it read 1.47-2.21 on thirty trials of a ratio the
    pairs put at 1.70-2.10)."""
    return spread([a / b for a, b in zip(over["readings"],
                                         under["readings"])])


def stopwatch(arms: Dict[Any, Callable],
              setup: Optional[Callable[[Any], Any]] = None):
    """Time ``arms`` against each other: ``({arm: spread}, {arm: the last
    reading's return value})``.

    Readings interleave (A B A B ..., as ``benchmarks.e2e --compare``
    alternates trees), so a busy minute on the box stretches every arm
    alike instead of landing on whichever ran in it.  The clock is this
    process's CPU time.  ``setup(arm)``, untimed, builds what one
    reading consumes and is handed to the arm.  The collector is off
    while a reading runs, and the caller's heap is frozen so that
    collecting between readings walks only what the arms allocated.
    """
    now = time.process_time
    readings: Dict[Any, List[float]] = {arm: [] for arm in arms}
    results: Dict[Any, Any] = {}
    enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for _ in range(READINGS):
            for arm, fn in arms.items():
                args = () if setup is None else (setup(arm),)
                gc.collect()
                started = now()
                results[arm] = fn(*args)
                readings[arm].append(now() - started)
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    return {arm: spread(r) for arm, r in readings.items()}, results


# -- the artifacts -------------------------------------------------------------

_ABSENT = object()


def _differences(old: Any, new: Any, path: str) -> List[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        return [found for key in sorted(old.keys() | new.keys())
                for found in _differences(
                    old.get(key, _ABSENT), new.get(key, _ABSENT),
                    f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        return [found for i, pair in enumerate(zip(old, new))
                for found in _differences(*pair, f"{path}[{i}]")]
    return [] if old == new else [path]


def moved(name: str, exact: Dict[str, Any]) -> List[str]:
    """The key paths at which ``exact`` differs from the exact half of
    ``BENCH_<name>.json`` — everything outside ``stamp`` / ``host``."""
    path = RESULTS_DIR / f"BENCH_{name}.json"
    committed = json.loads(path.read_text()) if path.exists() else {}
    for half in ("stamp", "host"):
        committed.pop(half, None)
    return _differences(committed, json.loads(json.dumps(exact)), "")


def assert_committed(name: str, exact: Dict[str, Any]) -> None:
    """A pytest entry whose scale is the artifact's holds it as a golden."""
    changed = moved(name, exact)
    assert not changed, (
        f"BENCH_{name}.json is stale at {', '.join(changed)}: regenerate "
        f"it with `python -m benchmarks {name}`")


def write_result(name: str, exact: Dict[str, Any],
                 host: Dict[str, Dict[str, Any]]) -> List[str]:
    """Write ``BENCH_<name>.json`` — provenance stamp, host figures, then
    the exact figures — and return what :func:`moved` in the file it
    replaces."""
    # imported here: run.py is an entry point and edits sys.path on import
    from benchmarks.e2e.run import stamp
    changed = moved(name, exact)
    provenance = stamp(seed=None, scale=None)
    del provenance["seed"], provenance["scale"]    # a bench fixes its own
    document = {"stamp": provenance, "host": host, **exact}
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(document, indent=2) + "\n")
    return changed
