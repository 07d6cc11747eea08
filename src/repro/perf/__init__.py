"""The model-run fast path: shared ensemble runner and run cache.

The paper's "models on tap" promise means thousands of repeated model
evaluations per portal interaction (GLUE bounds, slider sweeps,
calibration refreshes).  This package is the shared machinery that makes
those evaluations cheap:

* :class:`~repro.perf.runcache.RunCache` — content-addressed (model id +
  canonical parameters + forcing digest), LRU-bounded cache of run
  results, with hit/miss counters behind ``stats()``;
* :class:`~repro.perf.runner.EnsembleRunner` — the single funnel that
  calibration, OAT/regional sensitivity and GLUE evaluate through: the
  scalar loop, or one batch call through the vectorized kernel;
* :mod:`~repro.perf.keys` — canonical cache-key construction shared with
  the workflow engines' stage caches.
"""

from repro.perf.keys import (
    CanonicalisationError,
    canonical,
    canonical_json,
    content_key,
    forcing_digest,
    run_key,
)
from repro.perf.runcache import RunCache
from repro.perf.runner import CAPTURED_ERRORS, EnsembleRunner, RunFailure

__all__ = [
    "CAPTURED_ERRORS",
    "CanonicalisationError",
    "EnsembleRunner",
    "RunCache",
    "RunFailure",
    "canonical",
    "canonical_json",
    "content_key",
    "forcing_digest",
    "run_key",
]
