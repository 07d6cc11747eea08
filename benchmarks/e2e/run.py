"""The benchmark's one command.

``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e/run.py``)::

    run.py                                  the whole suite: 3 untraced runs
                                            per workload, interleaved
                                            A B C ... A B C ..., then one
                                            traced run each; tables; exits
                                            non-zero on any incorrect run
    run.py --workload W --seed N --seconds S --trace 0|1
                                            one run in this process; the last
                                            stdout line is the result object
    run.py --compare A.json B.json          verdict per (workload, metric)
    run.py --selfcheck                      the suite twice on the same code:
                                            sim metrics identical, host
                                            medians within their bounds

Noise discipline: every run is a fresh single-threaded process; a
discarded warm-up pass precedes timing; the collector is run and the
heap frozen before each timed section; every host number is
``time.process_time()`` scaled to nominal box speed by the reference
kernel timed between passes; a run reports the median over its passes,
the suite the median and quartiles over its runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program under test is not here")
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import subprocess                                           # noqa: E402
import time                                                 # noqa: E402
from typing import Any, Dict, List, Optional                # noqa: E402

from benchmarks.e2e import compare, measure                 # noqa: E402
from benchmarks.e2e.spec import (                           # noqa: E402
    DEFAULT_SCALE,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
)
from benchmarks.e2e.trace import TRACED                     # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS              # noqa: E402

#: host CPU this process spent before any workload code ran: interpreter
#: start plus importing the estate — the fixed part of ``setup_s``
IMPORT_S = time.process_time()

DETAIL_PREFIX = "DETAIL "
RESULTS_FILE = measure.OUT_DIR / "results.json"


def stamp(seed: int, scale: float) -> Dict[str, Any]:
    """What a result file must carry to be compared later (the suite
    stamps once; a single run never shells out)."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # an exported checkout is not a repository
    return {"commit": commit, "python": sys.version, "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed, "scale": scale}


# -- one run, in this process -------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    """The driver's entry: measure one workload, print the result line."""
    run = measure.run_workload(args.workload, args.seed, args.scale,
                               args.seconds, bool(args.trace), IMPORT_S)
    if args.update_golden:
        run.golden = run.passes[0].digest
        golden = measure.load_golden()
        golden.setdefault(run.workload, {})[
            measure.golden_key(run.seed, run.scale)] = run.golden
        measure.GOLDEN_FILE.write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n")
    info = measure.detail(run)
    result = measure.result_line(run, bool(args.trace))
    host = info["host_us_per_op"]
    print(f"{run.workload} seed={run.seed} scale={run.scale:g}: "
          f"{info['passes']} untraced + {info['traced_passes']} traced "
          f"passes of {info['ops_per_pass']} ops, "
          f"host {host['median']:.1f} us/op at nominal speed "
          f"[{host['min']:.1f}, {host['max']:.1f}] n={host['n']} "
          f"(raw {info['raw_us_per_op']['median']:.1f}, reference "
          f"{info['reference_s']['median']:.3f} s), "
          f"fail_share {info['fail_share']:.4f}, digest {info['digest']}, "
          f"wall {info['wall_s']:.1f} s (information only)")
    for problem in info["problems"]:
        print(f"INCORRECT: {problem}")
    if info["golden_mismatch"]:
        print(f"GOLDEN MISMATCH (fails the suite, not this run): "
              f"{info['golden_mismatch']}")
    for target in info["not_traced"]:
        print(f"NOT TRACED (no longer there): {target}")
    if args.trace:
        print(f"trace written to {measure.write_trace(run)}")
    print(DETAIL_PREFIX + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the suite: fresh subprocess per run, interleaved ------------------------


def child(workload: str, args: argparse.Namespace, trace: int
          ) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; parse what it printed."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", str(args.scale)]
    if args.update_golden:
        command.append("--update-golden")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        info = json.loads(next(
            line for line in lines if line.startswith(DETAIL_PREFIX)
        )[len(DETAIL_PREFIX):])
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise RuntimeError(
            f"{workload} (trace={trace}) printed no result; exit code "
            f"{done.returncode}\n{done.stdout}\n{done.stderr}") from None
    return {"workload": workload, "trace": trace, "seed": args.seed,
            "scale": args.scale, "result": result, "detail": info}


def run_suite(args: argparse.Namespace, label: str = "") -> Dict[str, Any]:
    """Untraced repeats interleaved across workloads, then traced runs."""
    names = list(WORKLOADS)
    runs: List[Dict[str, Any]] = []
    for repeat in range(args.repeats):
        for name in names:
            print(f"{label}untraced {repeat + 1}/{args.repeats} {name} ...",
                  flush=True)
            runs.append(child(name, args, trace=0))
    for name in names:
        print(f"{label}traced {name} ...", flush=True)
        runs.append(child(name, args, trace=1))
    return {"stamp": stamp(args.seed, args.scale), "runs": runs}


def print_end_to_end(document: Dict[str, Any]) -> None:
    """Every end-to-end metric by name with unit, per workload."""
    print("\nEnd-to-end (median [q1, q3] over the untraced runs; "
          "host = CPU clock, sim = simulated clock)")
    workloads = list(dict.fromkeys(r["workload"] for r in document["runs"]))
    for workload in workloads:
        runs = [r for r in document["runs"]
                if r["workload"] == workload and not r["trace"]]
        info = runs[0]["detail"]
        print(f"\n{workload}: n={len(runs)} runs x "
              f"{info['passes']} passes x {info['ops_per_pass']} ops; "
              f"attempted {sum(r['result']['attempted'] for r in runs)}, "
              f"failed {sum(r['result']['failed'] for r in runs)} "
              f"(fail_share {info['fail_share']:.4f}); "
              f"digest {info['digest']}"
              + ("" if info["golden"] else " (no golden for this seed)"))
        for metric in END_TO_END:
            q1, mid, q3 = compare.quartiles(
                compare.values_of(document, workload, metric.name))
            print(f"  {metric.name:15} {metric.clock:4} {mid:14.6g} "
                  f"{metric.unit:3} [{q1:.6g}, {q3:.6g}]")


def print_layers(document: Dict[str, Any]) -> None:
    """The per-layer table of each workload's traced run."""
    print("\nPer layer (traced run; self = host self time, "
          "sim = simulated seconds inside the program's own spans)")
    for run in document["runs"]:
        if not run["trace"]:
            continue
        values = {name: row["value"]
                  for name, row in run["result"]["metrics"].items()}
        print(f"\n{run['workload']}: trace.overhead_ratio "
              f"{values['trace.overhead_ratio']:.3f}, "
              f"trace.unattributed_share "
              f"{values['trace.unattributed_share']:.3f}")
        print(f"  {'layer':20} {'calls':>10} {'self us/op':>12} "
              f"{'sim s/op':>12}")
        for layer in sorted(
                TRACED, key=lambda l: -values[f"{l}.self_us_per_op"]):
            if not values[f"{layer}.calls"]:
                continue
            sim = values.get(f"{layer}.sim_s_per_op")
            print(f"  {layer:20} {values[f'{layer}.calls']:10.0f} "
                  f"{values[f'{layer}.self_us_per_op']:12.2f} "
                  + (f"{sim:12.6g}" if sim is not None else f"{'-':>12}"))
        idle = [layer for layer in TRACED if not values[f"{layer}.calls"]]
        print(f"  no calls: {', '.join(idle) or '-'}")
        extras = [m for m in PER_LAYER if values[m.name]
                  and not m.name.endswith((".calls", ".self_us_per_op",
                                           ".sim_s_per_op"))]
        for metric in extras:
            print(f"  {metric.name:36} {values[metric.name]:14.6g} "
                  f"{metric.unit}")


def incorrect(document: Dict[str, Any]) -> List[str]:
    """Every reason a run of the suite does not stand: an incorrect
    output, or a digest that left the recorded baseline."""
    found = []
    for run in document["runs"]:
        info = run["detail"]
        reasons = list(info["problems"])
        if info["golden_mismatch"]:
            reasons.append(info["golden_mismatch"])
        if not run["result"]["correct"] and not reasons:
            reasons.append("incorrect")
        found += [f"{run['workload']} (trace={run['trace']}): {reason}"
                  for reason in reasons]
    return found


def suite(args: argparse.Namespace) -> int:
    document = run_suite(args)
    measure.OUT_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else RESULTS_FILE
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nstamp: {json.dumps(document['stamp'])}")
    print_end_to_end(document)
    print_layers(document)
    print(f"\nresults written to {out}")
    bad = incorrect(document)
    for line in bad:
        print(f"INCORRECT: {line}", file=sys.stderr)
    return 1 if bad else 0


# -- selfcheck: the same code twice ------------------------------------------


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    first = run_suite(args, label="[set A] ")
    second = run_suite(args, label="[set B] ")
    rows = compare.compare(first, second)
    print(compare.render(rows, "set A", "set B"))
    failures = incorrect(first) + incorrect(second)
    by_name = {metric.name: metric for metric in END_TO_END}
    for workload, name, _unit, _a1, a_mid, _a3, _b1, b_mid, _b3, _v in rows:
        metric = by_name[name]
        gap = abs(b_mid - a_mid)
        if metric.clock == "sim":
            allowed = 0.0
        else:
            allowed = max(metric.paired_bound * abs(a_mid), metric.floor)
        if gap > allowed:
            failures.append(f"{workload} {name}: {a_mid:.6g} vs {b_mid:.6g} "
                            f"differ by more than {allowed:.6g}")
    for run in first["runs"] + second["runs"]:
        if run["trace"]:
            ratio = run["result"]["metrics"]["trace.overhead_ratio"]["value"]
            print(f"{run['workload']}: trace.overhead_ratio {ratio:.3f} "
                  f"(reported, not gated)")
    for line in failures:
        print(f"SELFCHECK FAILED: {line}", file=sys.stderr)
    if not failures:
        print("selfcheck passed: sim metrics identical, host medians "
              "within their bounds")
    return 1 if failures else 0


# -- entry -------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="EVOp end-to-end benchmark: six workloads, two clocks")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall seconds one run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="op-count multiplier of one pass")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this seed/scale's digests as golden")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload in the suite")
    parser.add_argument("--out", help="where the suite writes its results")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        base, other = (compare.load(path) for path in args.compare)
        print(compare.render(compare.compare(base, other), *args.compare))
        return 0
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_one(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
