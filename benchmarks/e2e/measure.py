"""One run, in this process: warm up, then timed passes until time is up.

A run repeats one fixed-size pass — fresh estate, same seed — for
``seconds`` of wall time, and times the reference kernel
(:mod:`benchmarks.e2e.reference`) between passes.  Every host time is
``time.process_time()`` scaled to the box's nominal speed by the two
reference samples around it; host numbers are medians over the passes.
Sim numbers must be identical on every pass, which the run checks for
free.  Wall time is used only to decide when to stop and as
information.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.perf.keys import content_key

from benchmarks.e2e.layers import layer_metrics
from benchmarks.e2e.reference import NOMINAL_S, Reference
from benchmarks.e2e.spec import END_TO_END, PER_LAYER, WARMUP_FRACTION
from benchmarks.e2e.trace import HostTracer
from benchmarks.e2e.workloads import WORKLOADS
from benchmarks.e2e.workloads.common import percentile

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"
OUT_DIR = HERE / "out"

#: untraced passes a run never does fewer of
MIN_PASSES = 3


@dataclass
class Pass:
    """One timed pass: host costs, sim metrics and the output digest."""

    setup_s: float
    host_s: float
    wall_s: float
    attempted: int
    failed: int
    sim: Dict[str, float]
    digest: str
    failed_checks: List[str]
    layers: Optional[Dict[str, float]] = None
    tracer: Optional[HostTracer] = None
    #: mean of the reference samples just before and just after the pass
    #: (nominal, i.e. uncalibrated, for a pass run on its own)
    reference_s: float = NOMINAL_S

    @property
    def to_nominal(self) -> float:
        """What a host time of this pass is multiplied by to read as the
        box at nominal speed would have measured it."""
        return NOMINAL_S / self.reference_s

    @property
    def raw_us_per_op(self) -> float:
        return self.host_s / max(1, self.attempted - self.failed) * 1e6

    @property
    def host_us_per_op(self) -> float:
        return self.raw_us_per_op * self.to_nominal


@dataclass
class Run:
    """Everything one run measured, before it is boiled down."""

    workload: str
    seed: int
    scale: float
    import_s: float
    #: the reference sample taken first, right after the imports
    import_reference_s: float = NOMINAL_S
    passes: List[Pass] = field(default_factory=list)
    traced: List[Pass] = field(default_factory=list)
    golden: Optional[str] = None


def golden_key(seed: int, scale: float) -> str:
    return f"seed={seed},scale={scale:g}"


def load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


def run_pass(workload: str, seed: int, scale: float,
             tracer: Optional[HostTracer] = None) -> Pass:
    """Build (timed as set-up), drive (the timed section), collect."""
    module = WORKLOADS[workload]
    gc.collect()
    setup_start = time.process_time()
    ctx = module.build(seed, scale)
    setup_s = time.process_time() - setup_start
    # the built estate is old heap by the time a user's request arrives:
    # keep the collector from re-walking it inside the timed section
    gc.collect()
    gc.freeze()
    try:
        wall_start, host_start = time.perf_counter(), time.process_time()
        if tracer is None:
            raw = module.drive(ctx)
        else:
            with tracer:
                raw = module.drive(ctx)
        host_s = time.process_time() - host_start
        wall_s = time.perf_counter() - wall_start
    finally:
        gc.unfreeze()
    outcome = module.collect(ctx, raw)
    ordered = sorted(outcome.latencies)
    sim = {"sim_p50_s": percentile(ordered, 0.50),
           "sim_p99_s": percentile(ordered, 0.99),
           "sim_makespan_s": outcome.makespan}
    digest = content_key({"sim": sim, "attempted": outcome.attempted,
                          "failed": outcome.failed,
                          "outputs": outcome.outputs})
    return Pass(
        setup_s=setup_s, host_s=host_s, wall_s=wall_s,
        attempted=outcome.attempted, failed=outcome.failed, sim=sim,
        digest=digest,
        failed_checks=[name for name, ok in outcome.checks.items() if not ok],
        layers=(layer_metrics(outcome, host_s, wall_s, tracer)
                if tracer is not None else None),
        tracer=tracer)


def run_workload(workload: str, seed: int, scale: float, seconds: float,
                 trace: bool, import_s: float) -> Run:
    """One discarded warm-up pass, then pass after pass until time is up,
    a reference sample between each two.

    With ``trace`` the passes alternate untraced / traced, so the
    overhead ratio compares like with like inside one process.
    """
    deadline = time.perf_counter() + seconds
    reference = Reference()
    sample = reference.sample()
    run = Run(workload, seed, scale, import_s, import_reference_s=sample,
              golden=load_golden().get(workload, {}).get(
                  golden_key(seed, scale)))
    run_pass(workload, seed, scale * WARMUP_FRACTION)    # discarded
    sample = reference.sample()
    longest = 0.0
    while True:
        traced_turn = trace and len(run.passes) > len(run.traced)
        started = time.perf_counter()
        done = run_pass(workload, seed, scale,
                        HostTracer() if traced_turn else None)
        before, sample = sample, reference.sample()
        done.reference_s = (before + sample) / 2
        (run.traced if traced_turn else run.passes).append(done)
        longest = max(longest, time.perf_counter() - started)
        enough = len(run.passes) >= MIN_PASSES and (
            not trace or len(run.traced) >= 2)
        # another pass only if it fits inside the run length
        if enough and time.perf_counter() + longest > deadline:
            return run


def end_to_end(run: Run) -> Dict[str, float]:
    """The six end-to-end numbers of a run, from its untraced passes."""
    return {
        "setup_s": run.import_s * NOMINAL_S / run.import_reference_s
        + statistics.median(p.setup_s * p.to_nominal for p in run.passes),
        "host_us_per_op":
            statistics.median(p.host_us_per_op for p in run.passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **run.passes[0].sim,
    }


def _typical(passes: List[Pass]) -> Pass:
    """The pass whose calibrated cost is the (upper) median."""
    return sorted(passes, key=lambda p: p.host_us_per_op)[len(passes) // 2]


def per_layer(run: Run) -> Dict[str, float]:
    """Per-layer numbers: the run's typical traced pass, whole, so the
    rows still add up to that pass's timed section; host times scaled to
    nominal speed like the end-to-end ones."""
    traced = _typical(run.traced)
    scale = {"us": traced.to_nominal, "1/s": 1.0 / traced.to_nominal}
    out = {m.name: traced.layers[m.name] * scale.get(m.unit, 1.0)
           for m in PER_LAYER}
    out["trace.overhead_ratio"] = (
        traced.host_us_per_op / _typical(run.passes).host_us_per_op)
    return out


def problems(run: Run) -> List[str]:
    """Why the run's outputs are not correct (empty when they are)."""
    every = run.passes + run.traced
    first = every[0]
    found = [f"check failed: {name}" for name in first.failed_checks]
    if any(p.digest != first.digest for p in every):
        found.append("digest differs between passes of one seed "
                     f"({sorted({p.digest for p in every})})")
    return found


def golden_mismatch(run: Run) -> Optional[str]:
    """How the run's digest departs from the recorded baseline, if it does.

    Not a correctness problem of a single run — a change of simulated
    policy moves the digest on purpose, and the run's own checks still
    judge its outputs — but the suite and ``--selfcheck`` fail on it, so
    that nothing moves the simulated behaviour unannounced.
    """
    digest = run.passes[0].digest
    if run.golden is None or digest == run.golden:
        return None
    return f"digest {digest} != golden {run.golden}"


def result_line(run: Run, trace: bool) -> Dict[str, Any]:
    """The contract's result object: the last line a run prints."""
    table = PER_LAYER if trace else END_TO_END
    values = per_layer(run) if trace else end_to_end(run)
    every = run.passes + run.traced
    return {
        "correct": not problems(run),
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table},
    }


def detail(run: Run) -> Dict[str, Any]:
    """What the suite keeps beside the result line: spread, n, digest."""
    def spread(values: Any) -> Dict[str, float]:
        ordered = sorted(values)
        return {"min": ordered[0], "median": statistics.median(ordered),
                "max": ordered[-1], "n": len(ordered)}

    first = run.passes[0]
    return {
        "workload": run.workload, "seed": run.seed, "scale": run.scale,
        "passes": len(run.passes), "traced_passes": len(run.traced),
        "ops_per_pass": first.attempted - first.failed,
        "attempted_per_pass": first.attempted,
        "failed_per_pass": first.failed,
        "fail_share": first.failed / max(1, first.attempted),
        "digest": first.digest, "golden": run.golden,
        "problems": problems(run),
        "golden_mismatch": golden_mismatch(run),
        "not_traced": run.traced[0].tracer.missing if run.traced else [],
        "import_s": run.import_s,
        "host_us_per_op": spread(p.host_us_per_op for p in run.passes),
        "raw_us_per_op": spread(p.raw_us_per_op for p in run.passes),
        "reference_s": spread(p.reference_s for p in run.passes),
        "setup_s_per_pass": spread(p.setup_s for p in run.passes),
        "wall_s": sum(p.wall_s for p in run.passes + run.traced),
    }


def write_trace(run: Run) -> Path:
    """The pass the per-layer table reports: aggregates, span sample,
    collapsed stacks."""
    tracer = _typical(run.traced).tracer
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{run.workload}.json"
    document = {"workload": run.workload, "seed": run.seed,
                "scale": run.scale, **tracer.document()}
    path.write_text(json.dumps(document) + "\n")
    path.with_suffix(".collapsed").write_text(
        "\n".join(tracer.collapsed_stacks()) + "\n")
    return path
