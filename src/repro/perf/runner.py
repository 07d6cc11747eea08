"""The shared ensemble runner every analysis path funnels through.

Calibration, OAT sensitivity, regional sensitivity and GLUE all reduce
to the same primitive — "evaluate this model for each of these parameter
sets" — and before this module each of them re-ran the model from
scratch.  :class:`EnsembleRunner` is that primitive made shared: one
``simulate`` callable, one content-addressed
:class:`~repro.perf.runcache.RunCache`, and two backends — the
scalar loop or one vectorized batch call — whose outputs come in input
order.

``simulate`` must be a pure function of its parameter dict (every model
binding in :mod:`repro.hydrology` is); deterministic *failures* are as
cacheable as results, so a parameter draw that blows the model up is
captured as a :class:`RunFailure` once and never re-raised from compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.perf.keys import run_key
from repro.perf.runcache import RunCache

#: Exception families a model evaluation may deterministically raise for
#: a bad parameter draw — information (a non-behavioural region), not an
#: error.  Matches the calibrator's historical tolerance.
CAPTURED_ERRORS = (ValueError, ArithmeticError)

#: The evaluation backends ``EnsembleRunner`` can select between.
BACKENDS = ("scalar", "vector")


def _eval_batch_chunk(batch: Callable[[Sequence[Dict[str, float]]], list],
                      capture_errors: bool,
                      chunk: Sequence[Dict[str, float]]) -> List[Any]:
    """Evaluate one chunk through a batch callable.

    With ``capture_errors``, a deterministic failure anywhere in the
    chunk triggers an item-by-item retry so one bad draw yields one
    :class:`RunFailure` instead of poisoning its whole chunk — the same
    per-item semantics as the scalar backend.
    """
    if not capture_errors:
        return list(batch(chunk))
    try:
        return list(batch(chunk))
    except CAPTURED_ERRORS:
        out: List[Any] = []
        for params in chunk:
            try:
                out.append(batch([params])[0])
            except CAPTURED_ERRORS as err:
                out.append(RunFailure.of(err))
        return out


@dataclass(frozen=True)
class RunFailure:
    """A deterministic simulation failure, captured and cacheable."""

    error_type: str
    message: str

    @classmethod
    def of(cls, error: BaseException) -> "RunFailure":
        """Wrap an exception."""
        return cls(error_type=type(error).__name__, message=str(error))


class EnsembleRunner:
    """Runs one model over many parameter sets, cached.

    ``model_id`` and ``forcing`` scope the cache keys (same scheme as
    the workflow stage cache: model id + canonical parameters + forcing
    digest), so one :class:`RunCache` can safely back many runners.
    ``sim`` (optional) attaches a span per batch to that simulator's
    tracer so cache behaviour shows up in traces.
    ``scheduler`` (optional, requires ``sim``) is a
    :class:`~repro.sched.router.ShardedRouter`; each batch is then
    scoped as a BATCH-class submission on the scheduling plane, so
    sweeps share the substrate — and its accounting — with portal
    sessions and workflow stages.  Results are unchanged either way.

    ``backend`` selects how cache misses are computed — ``"scalar"``
    (per-set ``simulate`` calls, one after another) or ``"vector"``
    (all misses in one call to ``batch``, e.g. the SoA TOPMODEL
    kernel).  Cache keys never include the backend, so a warm cache
    populated by one backend serves the other.  ``batch`` must map a
    sequence of parameter dicts to a list of results in input order;
    when it is ``None`` — or advertises ``vectorized = False`` (NumPy
    missing) — the runner quietly falls back to the scalar backend.
    """

    def __init__(self, simulate: Callable[[Dict[str, float]], Any],
                 model_id: str = "model", forcing: str = "",
                 cache: Optional[RunCache] = None,
                 sim=None, scheduler=None, backend: str = "scalar",
                 batch: Optional[Callable[[Sequence[Dict[str, float]]],
                                          list]] = None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        self.simulate = simulate
        self.model_id = model_id
        self.forcing = forcing
        self.cache = cache
        self.sim = sim
        self.scheduler = scheduler if sim is not None else None
        self.backend = backend
        self.batch = batch
        self.backend_runs = {name: 0 for name in BACKENDS}
        self.chunks_dispatched = 0

    def resolve_backend(self) -> str:
        """The backend ``run_many`` will actually use.

        Falls back to ``"scalar"`` when no batch callable is bound or
        the callable advertises that vectorization is unavailable
        (``vectorized = False``, e.g. ``TopmodelEnsemble`` without
        NumPy), so selecting ``backend="vector"`` is always safe.
        """
        if self.backend == "scalar" or self.batch is None:
            return "scalar"
        # ``batch`` is typically a bound method (TopmodelEnsemble.batch)
        # whose ``vectorized`` flag lives on the instance behind it
        owner = getattr(self.batch, "__self__", None)
        flag = getattr(self.batch, "vectorized",
                       getattr(owner, "vectorized", True))
        return "vector" if flag else "scalar"

    # -- single evaluation --------------------------------------------------

    def key_of(self, parameters: Dict[str, float]) -> str:
        """The content-addressed cache key of one parameter set."""
        return run_key(self.model_id, parameters, self.forcing)

    def run_one(self, parameters: Dict[str, float],
                capture_errors: bool = False) -> Any:
        """Evaluate one parameter set, consulting the cache.

        With ``capture_errors``, deterministic model failures come back
        as :class:`RunFailure` values (and are cached as such) instead
        of raising — a cache hit on a failure therefore reproduces the
        failure without re-running the model.
        """
        return self._run_keyed(parameters, capture_errors, None)

    def _run_keyed(self, parameters: Dict[str, float], capture_errors: bool,
                   key: Optional[str]) -> Any:
        if self.cache is None:
            return self._evaluate(parameters, capture_errors)
        key = key or self.key_of(parameters)
        found, value = self.cache.lookup(key)
        if found:
            if isinstance(value, RunFailure) and not capture_errors:
                raise ValueError(
                    f"cached run failed: {value.error_type}: {value.message}")
            return value
        value = self._evaluate(parameters, capture_errors)
        self.cache.store(key, value)
        return value

    # -- batch evaluation ---------------------------------------------------

    def run_many(self, parameter_sets: Sequence[Dict[str, float]],
                 capture_errors: bool = False,
                 keys: Optional[Sequence[str]] = None) -> List[Any]:
        """Evaluate a batch; output order always matches input order.

        The vector backend only regroups *computation*, never results:
        cache stores happen in first-occurrence order either way.
        ``keys`` are the sets' run keys when the caller already has them.
        """
        from contextlib import ExitStack
        span = None
        backend = self.resolve_backend()
        with ExitStack() as scope:
            if self.scheduler is not None:
                scope.enter_context(self.scheduler.batch_submission(
                    self.model_id, len(parameter_sets)))
            if self.sim is not None:
                from repro.obs.hub import obs_of
                hits_before = self.cache.hits if self.cache else 0
                span = obs_of(self.sim).tracer.start_span(
                    f"ensemble.run {self.model_id}", kind="perf",
                    attributes={"runs": len(parameter_sets),
                                "backend": backend})
            try:
                if backend == "vector":
                    results = self._run_misses(parameter_sets, keys,
                                               capture_errors)
                else:
                    keys = keys or [None] * len(parameter_sets)
                    results = [self._run_keyed(p, capture_errors, key)
                               for p, key in zip(parameter_sets, keys)]
            finally:
                if span is not None:
                    if self.cache is not None:
                        span.set_attribute(
                            "cache_hits", self.cache.hits - hits_before)
                    span.finish()
        return results

    def _run_misses(self, parameter_sets: Sequence[Dict[str, float]],
                    keys: Optional[Sequence[str]],
                    capture_errors: bool) -> List[Any]:
        """The cache discipline of the vector backend: hits resolved
        up front, each unique miss computed exactly once, in one batch,
        stores in first-occurrence order (the deterministic merge),
        outputs merged back to input order.  A repeat is served after its
        first occurrence is stored, as the scalar loop serves it; hits and
        misses are the scalar loop's while the cache holds the batch."""
        if self.cache is None:
            out = self._compute_batch(list(parameter_sets), capture_errors)
        else:
            keys = keys or [self.key_of(p) for p in parameter_sets]
            resolved: Dict[str, Any] = {}
            misses: Dict[str, Dict[str, float]] = {}
            repeats: List[str] = []
            for key, params in zip(keys, parameter_sets):
                if key in resolved or key in misses:
                    repeats.append(key)
                    continue
                found, value = self.cache.lookup(key)
                if found:
                    resolved[key] = value
                else:
                    misses[key] = params
            for key, value in zip(misses, self._compute_batch(
                    list(misses.values()), capture_errors)):
                self.cache.store(key, value)
                resolved[key] = value
            for key in repeats:
                if not self.cache.lookup(key)[0]:
                    self.cache.store(key, resolved[key])
            out = [resolved[key] for key in keys]
        for value in out:
            if isinstance(value, RunFailure) and not capture_errors:
                raise ValueError(
                    f"cached run failed: {value.error_type}: "
                    f"{value.message}")
        return out

    def _compute_batch(self, miss_params: Sequence[Dict[str, float]],
                       capture_errors: bool) -> List[Any]:
        if not miss_params:
            return []
        self.chunks_dispatched += 1
        computed = _eval_batch_chunk(self.batch, capture_errors, miss_params)
        self.backend_runs["vector"] += len(miss_params)
        return computed

    def _evaluate(self, parameters: Dict[str, float],
                  capture_errors: bool) -> Any:
        self.backend_runs["scalar"] += 1
        if not capture_errors:
            return self.simulate(parameters)
        try:
            return self.simulate(parameters)
        except CAPTURED_ERRORS as err:
            return RunFailure.of(err)

    def stats(self) -> Dict[str, float]:
        """Cache stats plus per-backend evaluation counters.

        The ``runs{backend=…}`` keys count model evaluations actually
        computed by each backend (cache hits excluded), spelled the way
        a registry snapshot spells a labeled child.
        """
        if self.cache is None:
            stats = {"hits": 0, "misses": 0, "evictions": 0,
                     "entries": 0, "hit_rate": 0.0}
        else:
            stats = self.cache.stats()
        for name in BACKENDS:
            stats[f"runs{{backend={name}}}"] = self.backend_runs[name]
        stats["chunks_dispatched"] = self.chunks_dispatched
        return stats
