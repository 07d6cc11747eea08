"""``python -m repro top``: the dashboard boots, drives load and repaints."""

import io
import re

from repro.obs.top import run_top

DEFAULT_SLOS = ("wps-attempt-availability", "replica-health",
                "wps-request-latency", "telemetry-freshness")


def test_top_renders_slos_red_and_estate_every_frame():
    stream = io.StringIO()
    run_top(horizon=120, refresh=60, stream=stream)
    text = stream.getvalue()
    frames = text.split("evop top  t=")[1:]
    assert len(frames) == 2
    for frame in frames:
        rows = [line.split()[0] for line in frame.splitlines()
                if line.startswith("  ") and "sli=" in line]
        assert rows == list(DEFAULT_SLOS)
        assert "request fabric (RED, 60s window)" in frame
        assert re.search(r"^  rate=\S+  attempt-failures=\S+  p95=\S+$",
                         frame, re.M)
        assert re.search(r"^estate:  private=\d+  public=\d+  "
                         r"cloudbursting=(YES|no)  cost=\$\d+\.\d{3}$",
                         frame, re.M)
    # the replica crash a third of the way in pages by the second frame
    assert "no alerts" in frames[0]
    assert "ALERTS: wps-attempt-availability" in frames[1]
    assert text.rstrip().endswith("120s horizon complete; final state above.")
