"""A seed reproduces a run: in one process, and across hash seeds.

Every id a run mints (session, job, trace, span, ...) comes from its
own simulator, so two builds from one seed name everything alike even
when they share a process, and nothing has to be rewound between them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Evop, EvopConfig
from repro.geo import GeoEstate
from repro.obs.hub import obs_of

ROOT = Path(__file__).resolve().parents[1]


def _placements(sessions):
    """Each session's id and the address of the replica it sits on."""
    return [(s.session_id, s.instance.address if s.instance else None)
            for s in sessions]


def _evop_run():
    evop = Evop(EvopConfig(seed=1, shards=2)).bootstrap()
    evop.run_for(300.0)
    sessions = [evop.rb.connect(f"u{i}", "left-morland") for i in range(6)]
    evop.run_for(60.0)
    spans = obs_of(evop.sim).tracer.spans()
    return _placements(sessions), spans[0].trace_id, len(spans)


def test_two_same_seed_evops_in_one_process_are_identical():
    first, second = _evop_run(), _evop_run()
    placements, trace_id, span_count = first
    assert [s for s, _ in placements] == [f"sess-{i:06d}" for i in range(6)]
    assert any(address is not None for _, address in placements)
    assert trace_id == f"{1:032x}" and span_count > 0
    assert second == first


def _geo_run():
    estate = GeoEstate(regions=3).warm()
    sessions = [estate.submit(f"{region}-u{i}", origin=region)
                for region in estate.regions() for i in range(2)]
    estate.sim.run(until=estate.sim.now + 60.0)
    return _placements(sessions)


def test_two_geo_estates_in_one_process_are_identical():
    first, second = _geo_run(), _geo_run()
    assert [s for s, _ in first] == [f"sess-{i:06d}" for i in range(6)]
    assert all(address is not None for _, address in first)
    assert second == first


_DIGEST = ("from benchmarks.e2e import measure; "
           "print(measure.run_pass({workload!r}, 1, 0.02).digest)")


@pytest.mark.parametrize("workload", ["portal_storm", "region_failover"])
def test_digest_does_not_depend_on_the_hash_seed(workload):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    digests = []
    for hash_seed in ("0", "4242"):
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST.format(workload=workload)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path,
                 "PYTHONHASHSEED": hash_seed})
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] and digests[0] == digests[1]
