"""Compare two result files, metric by metric, with the guide's rule.

A result file is what the suite writes: a stamp and a list of runs.
For each (workload, metric) the runs of side A (the base) and side B
are boiled down to median and quartiles, and B is judged against A:

* a **sim** metric is compared exactly when both sides ran the same
  seed and scale — any difference beyond ``SIM_EXACT`` is ``better`` or
  ``worse``, never noise;
* a **host** metric is ``worse`` when B's median is worse than A's by
  more than the metric's paired bound, ``better`` when B wins at least nine
  tenths of the run pairs and the medians differ by more than A's own
  interquartile spread, else ``same`` — and ``unresolved`` when A's
  spread is wider than the bound, unless every run of one side beats
  every run of the other.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

from benchmarks.e2e.spec import END_TO_END, SIM_EXACT, Metric

Row = Tuple[str, str, str, float, float, float, float, float, float, str]


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def values_of(document: Dict[str, Any], workload: str,
              metric: str) -> List[float]:
    """One metric's value in every untraced run of ``workload``."""
    return [run["result"]["metrics"][metric]["value"]
            for run in document["runs"]
            if run["workload"] == workload and not run["trace"]]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _worse_by(metric: Metric, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, in the metric's unit."""
    return other - base if metric.better == "lower" else base - other


def verdict(metric: Metric, a: List[float], b: List[float],
            same_inputs: bool) -> str:
    """``better`` / ``worse`` / ``same`` / ``unresolved`` for B against A."""
    _, a_mid, _ = quartiles(a)
    _, b_mid, _ = quartiles(b)
    worse_by = _worse_by(metric, a_mid, b_mid)
    if metric.clock == "sim" and same_inputs:
        if abs(worse_by) <= SIM_EXACT * abs(a_mid):
            return "same"
        return "worse" if worse_by > 0 else "better"
    q1, _, q3 = quartiles(a)
    spread = q3 - q1
    allowed = max(metric.paired_bound * abs(a_mid), metric.floor)
    b_beats_a = all(_worse_by(metric, x, y) < 0 for x in a for y in b)
    a_beats_b = all(_worse_by(metric, x, y) > 0 for x in a for y in b)
    if spread > allowed and not (b_beats_a or a_beats_b):
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if _worse_by(metric, x, y) < 0)
    if wins >= 0.9 * len(pairs) and -worse_by > spread:
        return "better"
    return "same"


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> List[Row]:
    """One row per (workload, metric) present on both sides."""
    same_inputs = all(base["stamp"][key] == other["stamp"][key]
                      for key in ("seed", "scale"))
    rows: List[Row] = []
    workloads = list(dict.fromkeys(r["workload"] for r in base["runs"]))
    for workload in workloads:
        for metric in END_TO_END:
            a = values_of(base, workload, metric.name)
            b = values_of(other, workload, metric.name)
            if not a or not b:
                continue
            a_q1, a_mid, a_q3 = quartiles(a)
            b_q1, b_mid, b_q3 = quartiles(b)
            rows.append((workload, metric.name, metric.unit, a_q1, a_mid,
                         a_q3, b_q1, b_mid, b_q3,
                         verdict(metric, a, b, same_inputs)))
    return rows


def render(rows: List[Row], base_name: str, other_name: str) -> str:
    """The comparison table: every ratio printed with its base."""
    lines = [f"A = {base_name} (base), B = {other_name}",
             f"{'workload':16} {'metric':15} {'unit':4} "
             f"{'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
             f"{'B/A':>8}  verdict"]
    for (workload, name, unit, a_q1, a_mid, a_q3,
         b_q1, b_mid, b_q3, outcome) in rows:
        ratio = f"{b_mid / a_mid:8.4f}" if a_mid else "     n/a"
        lines.append(
            f"{workload:16} {name:15} {unit:4} "
            f"{a_mid:12.6g} [{a_q1:10.6g},{a_q3:10.6g}] "
            f"{b_mid:12.6g} [{b_q1:10.6g},{b_q3:10.6g}] "
            f"{ratio}  {outcome}")
    return "\n".join(lines)
