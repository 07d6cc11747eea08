"""The scoreboard: one stopwatch, one result writer, one entry point.

``benchmarks/harness.py`` reads the host clock for every bench outside
``benchmarks/e2e`` and writes every ``BENCH_<name>.json``;
``python -m benchmarks`` is the only caller that writes.  These tests
pin the stopwatch's protocol, the artifact's shape and the indexes that
say which bench reproduces what.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import harness
from benchmarks.__main__ import BENCHES

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))


# -- the stopwatch -----------------------------------------------------------


def test_stopwatch_interleaves_its_arms():
    order = []
    figures, results = harness.stopwatch(
        {"a": lambda: order.append("a") or "last a",
         "b": lambda: order.append("b") or "last b"})
    assert order == ["a", "b"] * harness.READINGS
    assert results == {"a": "last a", "b": "last b"}
    for figure in figures.values():
        assert figure["repeats"] == len(figure["readings"]) == 5
        assert figure["clock"] == "process_time"
        assert 0.0 <= figure["q1"] <= figure["median"] <= figure["q3"]


def test_stopwatch_builds_each_reading_outside_the_clock():
    built, seen = [], []
    figures, _ = harness.stopwatch(
        {1: seen.append, 2: seen.append}, wall=True,
        setup=lambda arm: built.append(arm) or (arm, len(built)))
    # one fresh state per reading, handed to the arm it was built for
    assert built == [1, 2] * 5
    assert seen == [(arm, i + 1) for i, arm in enumerate(built)]
    assert {f["clock"] for f in figures.values()} == {"perf_counter"}


def test_stopwatch_quiesces_the_collector_and_restores_it():
    assert gc.isenabled()
    seen = []
    harness.stopwatch({"arm": lambda: seen.append(gc.isenabled())})
    assert seen == [False] * harness.READINGS
    assert gc.isenabled()

    def broken():
        raise RuntimeError("arm failed")

    with pytest.raises(RuntimeError):
        harness.stopwatch({"arm": broken})
    assert gc.isenabled()


def test_ratio_pairs_the_readings_that_shared_a_moment():
    # a slow third round stretched both arms alike: the pairs cancel it
    over = harness.spread([4.0, 4.0, 8.0, 4.0, 4.0])
    under = harness.spread([2.0, 2.0, 4.0, 2.0, 2.0])
    speedup = harness.ratio(over, under)
    assert speedup["readings"] == [2.0] * 5
    assert speedup["q1"] == speedup["median"] == speedup["q3"] == 2.0
    assert (speedup["repeats"], speedup["clock"]) == (5, "process_time")


# -- the writer --------------------------------------------------------------


def test_write_result_round_trips_and_names_what_moved(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    exact = {"p99_speedup": 26.0, "arms": [{"arm": "view", "errors": 0},
                                           {"arm": "recompute", "errors": 0}]}
    host = {"seconds": harness.spread([0.1, 0.2, 0.3], "process_time")}

    # nothing to replace: every figure is news
    assert harness.write_result("demo", exact, host) == ["arms", "p99_speedup"]
    document = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert list(document)[:2] == ["stamp", "host"]
    assert set(document["stamp"]) == {"commit", "python", "numpy", "nproc"}
    assert document["host"] == host
    assert {k: v for k, v in document.items()
            if k not in ("stamp", "host")} == exact
    assert harness.moved("demo", exact) == []
    harness.assert_committed("demo", exact)

    # a doctored file: one exact figure, and both halves that may move
    document["arms"][1]["errors"] = 3
    document["stamp"]["commit"] = "someone else's"
    document["host"]["seconds"]["median"] = 99.0
    (tmp_path / "BENCH_demo.json").write_text(json.dumps(document))
    assert harness.moved("demo", exact) == ["arms[1].errors"]
    with pytest.raises(AssertionError, match=r"arms\[1\]\.errors"):
        harness.assert_committed("demo", exact)
    assert harness.write_result("demo", exact, host) == ["arms[1].errors"]
    assert harness.write_result("demo", exact, {}) == []


# -- the committed artifacts -------------------------------------------------


def test_the_entry_point_knows_exactly_the_committed_artifacts():
    assert [path.name for path in ARTIFACTS] == \
        [f"BENCH_{name}.json" for name in BENCHES]


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda path: path.stem)
def test_committed_artifact_carries_provenance_and_spread(path):
    document = json.loads(path.read_text())
    stamp = document["stamp"]
    assert re.fullmatch(r"[0-9a-f]{40}", stamp["commit"])
    assert stamp["python"] and stamp["numpy"] and stamp["nproc"]
    for name, figure in document["host"].items():
        assert figure["repeats"] == len(figure["readings"]) >= 3, name
        assert figure["q1"] <= figure["median"] <= figure["q3"], name
        assert figure["clock"] in ("process_time", "perf_counter"), name
    # the exact half is everything else, and there is some
    assert set(document) - {"stamp", "host"}


def test_entry_point_refuses_a_bench_it_does_not_know():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks", "no_such_bench"], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "no_such_bench" in done.stderr
    for name in BENCHES:
        assert name in done.stderr


# -- the indexes -------------------------------------------------------------


@pytest.mark.parametrize("index", ["DESIGN.md", "EXPERIMENTS.md"])
def test_every_bench_is_indexed(index):
    text = (ROOT / index).read_text()
    missing = [path.stem for path in sorted(ROOT.glob("benchmarks/bench_*.py"))
               if path.stem not in text]
    assert not missing, f"{index} names no row for {missing}"
