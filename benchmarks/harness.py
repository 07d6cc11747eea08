"""Shared helpers for the benchmark suite.

Every bench reproduces one figure or quantified claim of the paper (see
DESIGN.md's experiment index).  Benches run the experiment once under
``benchmark.pedantic`` (the discrete-event simulations are deterministic,
so repetition buys nothing), print the table/series the paper reports,
and assert the *shape* — who wins, roughly by how much, where crossovers
fall.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.obs.export import summarize_spans


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
