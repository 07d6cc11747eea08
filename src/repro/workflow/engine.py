"""Workflow execution with caching and provenance: the library engine.

The replay/tweak properties the paper promises come from
content-addressed stage caching: a stage's cache key (:func:`stage_key`,
the one key both engines use) hashes its node id, the parameters it
declares it uses, and the cache keys of its dependencies.  Re-running an
identical workflow is a full cache hit; tweaking one parameter
recomputes only the stages downstream of the nodes that read it.  Every
run leaves a :class:`RunRecord` provenance trail.  Runs that call
services, take simulated time or must survive their executor belong to
the estate engine, :mod:`repro.workflow.cloud`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.perf.keys import CanonicalisationError, content_key
from repro.workflow.dag import Workflow, WorkflowNode


@dataclass
class StageRecord:
    """Provenance of one stage in one run."""

    node_id: str
    cache_key: str
    cached: bool
    output_repr: str
    started_at: float
    finished_at: float


@dataclass
class RunRecord:
    """Provenance of one workflow run.

    ``trace_id`` links the record to its distributed trace when the run
    executed under a tracer — provenance says *what* ran, the trace says
    *where the time went*.
    """

    run_id: str
    workflow: str
    parameters: Dict[str, Any]
    stages: List[StageRecord] = field(default_factory=list)
    outputs: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    #: set on failed runs: a :class:`~repro.workflow.cloud.StageFailure`
    #: (or similar typed error) instead of a bare exception
    failure: Optional[Any] = None

    def cache_hits(self) -> int:
        """Stages served from cache."""
        return sum(1 for s in self.stages if s.cached)

    def recomputed(self) -> List[str]:
        """Node ids that actually executed."""
        return [s.node_id for s in self.stages if not s.cached]


class WorkflowEngine:
    """The library engine: runs a workflow of callables in the caller's
    process, caching stage outputs across runs.

    Provenance is stamped by a monotonic counter, not a clock, and
    nothing is journaled: a run that must take simulated time, call
    services or outlive its executor belongs to
    :class:`~repro.workflow.cloud.CloudWorkflowEngine`.
    """

    def __init__(self, tracer=None):
        self._cache: Dict[str, Any] = {}
        self._runs: List[RunRecord] = []
        self._run_ids = itertools.count()
        self._ticks = itertools.count()
        #: optional :class:`~repro.obs.tracer.Tracer`; when set, each run
        #: produces a ``workflow.run`` span with per-stage children,
        #: parented under whatever span is active (e.g. the instance job
        #: whose ``compute`` invoked this engine)
        self.tracer = tracer

    def run(self, workflow: Workflow,
            parameters: Optional[Dict[str, Any]] = None) -> RunRecord:
        """Execute ``workflow`` with ``parameters``; returns provenance.

        A workflow holding service nodes is refused: their placeholder
        callable would answer ``None`` for a call nobody made.
        """
        workflow.validate()
        remote = [n.node_id for n in workflow.nodes()
                  if n.service_call is not None]
        if remote:
            raise ValueError(
                f"workflow {workflow.name!r} has service nodes {remote}: "
                f"the library engine makes no service calls, run it on a "
                f"CloudWorkflowEngine")
        params = dict(parameters or {})
        record = RunRecord(
            run_id=f"run-{next(self._run_ids):05d}",
            workflow=workflow.name,
            parameters=params,
        )
        run_span = None
        if self.tracer is not None:
            run_span = self.tracer.start_span(
                f"workflow.run {workflow.name}", kind="workflow",
                attributes={"run_id": record.run_id})
            record.trace_id = run_span.trace_id
        keys: Dict[str, str] = {}
        outputs: Dict[str, Any] = {}
        for node in workflow.topological_order():
            key = stage_key(node, params, keys)
            keys[node.node_id] = key
            started = float(next(self._ticks))
            stage_span = None
            if run_span is not None:
                stage_span = self.tracer.start_span(
                    f"workflow.stage {node.node_id}", parent=run_span,
                    kind="stage", attributes={"cache_key": key})
            if key in self._cache:
                output = self._cache[key]
                cached = True
            else:
                upstream = {dep: outputs[dep] for dep in node.depends_on}
                output = node.fn(params, upstream)
                self._cache[key] = output
                cached = False
            if stage_span is not None:
                stage_span.set_attribute("cached", cached)
                stage_span.finish()
            outputs[node.node_id] = output
            record.stages.append(StageRecord(
                node_id=node.node_id,
                cache_key=key,
                cached=cached,
                output_repr=_short_repr(output),
                started_at=started,
                finished_at=float(next(self._ticks)),
            ))
        record.outputs = outputs
        if run_span is not None:
            run_span.set_attribute("cache_hits", record.cache_hits())
            run_span.finish()
        self._runs.append(record)
        return record

    def runs(self) -> List[RunRecord]:
        """Every run executed by this engine, oldest first."""
        return list(self._runs)

    def invalidate(self) -> None:
        """Drop the stage cache (force full recomputation)."""
        self._cache.clear()


def stage_key(node: WorkflowNode, params: Dict[str, Any],
              upstream_keys: Dict[str, str]) -> str:
    """The one stage key, whichever engine runs the stage: node id, the
    process a service node calls, the parameters the node declares it
    reads, and the keys of its dependencies."""
    call = node.service_call
    return stage_cache_key({
        "node": node.node_id,
        "process": call.process_id if call else None,
        "params": {name: params.get(name) for name in node.params_used},
        "deps": [upstream_keys[dep] for dep in node.depends_on],
    }, node.node_id)


def stage_cache_key(basis: Dict[str, Any], node_id: str) -> str:
    """Hash a stage's cache basis into its content-addressed key.

    The basis is canonicalised first — nested dicts are key-sorted and
    tuples/lists unified — so a parameter dict built in a different
    insertion order still hits the cache.  Values with no canonical JSON
    form (objects, sets, ...) raise a clear error naming the stage and
    parameter path rather than being silently keyed by ``repr`` (which
    can embed memory addresses, making every run a miss).
    """
    try:
        return content_key(basis, f"stage {node_id!r}")
    except CanonicalisationError as err:
        raise CanonicalisationError(
            f"workflow cache key for {err}") from None


def _short_repr(value: Any, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."
