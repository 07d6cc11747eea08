"""The repo's end-to-end benchmark: six workloads, two clocks, per-layer attribution.

``python -m benchmarks.e2e`` is the one command (``BENCHMARK.json`` at
the repo root names ``benchmarks/e2e/run.py`` for the driver).  Every
number is reported on a named clock — **host** (CPU cost of the Python,
``time.process_time()``, noisy, bounded) or **sim** (simulated seconds
and counts, deterministic for a seed, must repeat exactly) — and a host
claim never cites a sim number or vice versa.  See ``README.md`` beside
this file for the metric and workload tables.
"""
