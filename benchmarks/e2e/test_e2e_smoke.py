"""Tier-1 smoke of the end-to-end benchmark: every workload, tiny scale.

In-process at scale 0.02 (the full-size benchmark never runs under
pytest: this is the only ``test_*``/``bench_*`` file in the package).
Pins what later issues rely on: the metric names and units equal
``BENCHMARK.json``, sim metrics repeat exactly for a seed, the baseline
fails no op, the region kill is ridden out by retries, and tracing
neither changes results nor stays installed.
"""

import json
from pathlib import Path

import pytest

from benchmarks.e2e import measure, spec
from benchmarks.e2e.trace import TRACED, HostTracer, resolve
from benchmarks.e2e.workloads import WORKLOADS

SCALE = 0.02
SEED = 1
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_json_is_the_spec_rendered():
    assert json.loads(BENCHMARK_JSON.read_text()) == spec.benchmark_json()


def test_six_workloads_each_with_a_one_line_reason():
    assert list(WORKLOADS) == [
        "portal_storm", "read_storm", "ingest_fanout", "placement_churn",
        "forecast_sweep", "region_failover"]
    for module in WORKLOADS.values():
        assert 0 < len(module.WHY) <= 200 and "\n" not in module.WHY


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke(workload):
    originals = {(owner, attr): vars(owner)[attr]
                 for targets in TRACED.values()
                 for owner, attr in filter(None, map(resolve, targets))}
    first = measure.run_pass(workload, SEED, SCALE)
    second = measure.run_pass(workload, SEED, SCALE)
    tracer = HostTracer()
    traced = measure.run_pass(workload, SEED, SCALE, tracer)

    # sim clock: exact repeat, traced or not
    assert first.sim == second.sim == traced.sim
    assert first.digest == second.digest == traced.digest
    assert not first.failed_checks
    assert first.failed == 0 and first.attempted > 0
    assert all(value > 0 for value in first.sim.values())

    # the patched callables are the originals again
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"

    # self times partition the root spans exactly; what the root spans
    # do not cover of the timed section is the unattributed share
    assert sum(tracer.layer_self_ns().values()) == tracer.root_ns
    assert 0 < tracer.root_ns <= traced.wall_s * 1e9
    assert traced.layers["trace.unattributed_share"] == pytest.approx(
        1.0 - tracer.root_ns / 1e9 / traced.wall_s)
    assert traced.layers["trace.unattributed_share"] <= 0.15
    assert traced.layers["sim.calls"] >= 1

    # names and units are BENCHMARK.json's, on both kinds of run
    run = measure.Run(workload, SEED, SCALE, import_s=0.5,
                      passes=[first, second], traced=[traced])
    contract = json.loads(BENCHMARK_JSON.read_text())
    for trace, table in ((False, "end_to_end"), (True, "per_layer")):
        result = measure.result_line(run, trace)
        assert result["correct"] and result["failed"] == 0
        assert {name: row["unit"]
                for name, row in result["metrics"].items()} == {
            row["name"]: row["unit"] for row in contract[table]}

    if workload == "region_failover":
        assert traced.layers["resilience.retries"] > 0
        assert traced.layers["geo.calls"] > 0
    else:
        assert traced.layers["geo.calls"] == 0
