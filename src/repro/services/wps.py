"""OGC Web Processing Service (WPS) over the REST engine.

EVOp exposes every model as a WPS endpoint: ``GetCapabilities``,
``DescribeProcess`` and ``Execute`` (synchronous and asynchronous).  The
operation vocabulary follows the OGC standard; the transport is the
project's REST engine — mirroring the paper's compromise of "not having a
completely RESTful architecture in order to enable easy integration of
models".

Statelessness is preserved even for asynchronous execution: execution
status lives in a shared blob-store container, not on the serving
replica, so *any* replica can answer a status poll.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cloud.instance import Instance, Job
from repro.cloud.storage import Container
from repro.durable.journal import jsonable
from repro.services.envelope import problem
from repro.services.pagination import CursorError, paginate
from repro.services.rest import (
    HttpError,
    RestApi,
    RestBackground,
    RestCacheable,
    RestDeferred,
    RestServer,
)
from repro.services.transport import HttpRequest
from repro.sim import Simulator
from repro.tenancy.context import TENANT_HEADER

_execution_ids = itertools.count()

#: Output keys worth indexing in the run-summary view: the scalar
#: results a stakeholder compares across runs.  Everything else (full
#: hydrographs, series payloads) stays behind the execution status
#: document.
RUN_SUMMARY_KEYS = ("peak_mm_h", "peak_time_hours", "volume_mm",
                    "threshold_exceeded", "model")


@dataclass(frozen=True)
class InputSpec:
    """Declared WPS process input: type, default and optional bounds."""

    name: str
    data_type: str = "float"
    required: bool = True
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    abstract: str = ""


@dataclass
class ProcessDescription:
    """The DescribeProcess document for one process."""

    identifier: str
    title: str
    abstract: str = ""
    inputs: List[InputSpec] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    version: str = "1.0.0"

    def to_document(self) -> Dict[str, Any]:
        """Serialisable DescribeProcess response body."""
        return {
            "identifier": self.identifier,
            "title": self.title,
            "abstract": self.abstract,
            "version": self.version,
            "inputs": [
                {
                    "name": spec.name,
                    "dataType": spec.data_type,
                    "required": spec.required,
                    "default": spec.default,
                    "minimum": spec.minimum,
                    "maximum": spec.maximum,
                    "abstract": spec.abstract,
                }
                for spec in self.inputs
            ],
            "outputs": list(self.outputs),
        }


class WpsProcess:
    """A runnable process behind ``Execute``.

    ``run`` maps validated inputs to an outputs dict; ``cost`` estimates
    the CPU charge of a run from those inputs (e.g. proportional to the
    number of simulated timesteps).
    """

    def __init__(self, description: ProcessDescription,
                 run: Callable[[Dict[str, Any]], Dict[str, Any]],
                 cost: Callable[[Dict[str, Any]], float]):
        self.description = description
        self._run = run
        self._cost = cost

    @property
    def identifier(self) -> str:
        """The process identifier."""
        return self.description.identifier

    def validate(self, raw_inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Apply defaults, check presence, types-by-bounds; raise 400s."""
        inputs: Dict[str, Any] = {}
        known = {spec.name for spec in self.description.inputs}
        for name in raw_inputs:
            if name not in known:
                raise HttpError(400, f"unknown input {name!r}")
        for spec in self.description.inputs:
            if spec.name in raw_inputs:
                value = raw_inputs[spec.name]
            elif spec.default is not None or not spec.required:
                value = spec.default
            else:
                raise HttpError(400, f"missing required input {spec.name!r}")
            if value is not None and spec.minimum is not None and value < spec.minimum:
                raise HttpError(400, f"input {spec.name!r} below minimum "
                                     f"{spec.minimum}")
            if value is not None and spec.maximum is not None and value > spec.maximum:
                raise HttpError(400, f"input {spec.name!r} above maximum "
                                     f"{spec.maximum}")
            inputs[spec.name] = value
        return inputs

    def cost(self, inputs: Dict[str, Any]) -> float:
        """CPU charge (reference-core seconds) of running with ``inputs``."""
        return self._cost(inputs)

    def execute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Run the process (host-instantaneous; charged via the job cost)."""
        return self._run(inputs)


class WpsService:
    """A WPS endpoint: builds the shared :class:`RestApi` for replicas.

    ``status_container`` holds asynchronous execution state; pass the
    same container to every replica of the same service.
    """

    def __init__(self, sim: Simulator, name: str, status_container: Container):
        self.sim = sim
        self.name = name
        self.status = status_container
        self._processes: Dict[str, WpsProcess] = {}
        self._outbox = None
        self._run_stream = "runs"
        self.api = RestApi(f"wps.{name}")
        self.api.get("/wps", self._get_capabilities, cacheable=False)
        self.api.get("/wps/processes/{identifier}", self._describe_process)
        # Execute replays deterministically (same inputs, same outputs),
        # so the route is declared safe: clients may retry and hedge it.
        self.api.post("/wps/processes/{identifier}/execute", self._execute,
                      safe=True)
        self.api.get("/wps/executions/{execution_id}", self._get_status,
                     cacheable=True)

    def attach_outbox(self, outbox, stream: str = "runs") -> None:
        """Publish run lifecycle events to the data plane.

        Each Execute records ``run.submitted`` and later
        ``run.finished``/``run.failed`` in the transactional outbox —
        the same step as the execution's own state change, so the
        run-summary view never sees a run the service forgot.
        """
        self._outbox = outbox
        self._run_stream = stream

    def _publish_run(self, run_id: str, process: str, status: str,
                     submitted_at: float,
                     finished_at: Optional[float] = None,
                     outputs: Optional[Dict[str, Any]] = None,
                     tenant: Optional[str] = None) -> None:
        if self._outbox is None:
            return
        payload: Dict[str, Any] = {"process": process,
                                   "submittedAt": submitted_at}
        if tenant is not None:
            payload["tenant"] = tenant
        if finished_at is not None:
            payload["finishedAt"] = finished_at
        for key in RUN_SUMMARY_KEYS:
            if outputs and key in outputs:
                ok, value = jsonable(outputs[key])
                if ok:
                    payload[key] = value
        self._outbox.record(self._run_stream, f"run.{status}", key=run_id,
                            payload=payload)

    def add_process(self, process: WpsProcess) -> None:
        """Publish a process on this service."""
        if process.identifier in self._processes:
            raise ValueError(f"duplicate process {process.identifier!r}")
        self._processes[process.identifier] = process

    def processes(self) -> List[str]:
        """Identifiers of all published processes."""
        return sorted(self._processes)

    def replica(self, instance: Instance) -> RestServer:
        """Create a server replica of this service on ``instance``."""
        return RestServer(self.sim, self.api, instance)

    # -- handlers ------------------------------------------------------------------

    def _get_capabilities(self, request: HttpRequest, params: Dict[str, str]):
        processes = [
            {"identifier": identifier,
             "title": self._processes[identifier].description.title}
            for identifier in sorted(self._processes)
        ]
        body = {
            "service": "WPS",
            "version": "1.0.0",
            "title": self.name,
            "processes": processes,
        }
        keys = [p["identifier"] for p in processes]
        try:
            page = paginate(request, processes, keys)
        except CursorError as err:
            return 400, problem(400, "invalid cursor", str(err),
                                retryable=False)
        body["processes"] = page.items
        body["total"] = page.total
        body["nextCursor"] = page.next_cursor
        return 200, body, page.headers

    def _describe_process(self, request: HttpRequest, params: Dict[str, str]):
        process = self._processes.get(params["identifier"])
        if process is None:
            return 404, problem(404, "no such process",
                                f"no process {params['identifier']!r}",
                                retryable=False)
        return process.description.to_document()

    def _execute(self, request: HttpRequest, params: Dict[str, str]):
        process = self._processes.get(params["identifier"])
        if process is None:
            return 404, problem(404, "no such process",
                                f"no process {params['identifier']!r}",
                                retryable=False)
        body = request.body or {}
        if not isinstance(body, dict):
            return 400, problem(400, "malformed execute body",
                                f"execute body must be an object, got "
                                f"{type(body).__name__}", retryable=False)
        mode = body.get("mode", "sync")
        try:
            inputs = process.validate(body.get("inputs", {}))
        except HttpError as err:
            return err.status, err.to_problem()
        # a format, not an identity: run payloads and status documents
        # carry a ``tenant`` key only when the request carried the header
        tenant = request.headers.get(TENANT_HEADER)
        if mode == "sync":
            return self._execute_sync(process, inputs, tenant=tenant)
        if mode == "async":
            return self._execute_async(process, inputs, tenant=tenant)
        return 400, problem(400, "unknown execute mode",
                            f"unknown mode {mode!r}", retryable=False)

    def _execute_sync(self, process: WpsProcess, inputs: Dict[str, Any],
                      tenant: Optional[str] = None):
        run_id = f"run-{next(_execution_ids):06d}"
        submitted_at = self.sim.now
        self._publish_run(run_id, process.identifier, "submitted",
                          submitted_at, tenant=tenant)

        def compute():
            try:
                return process.execute(inputs)
            except Exception:
                # the read model must not keep a run the service gave up
                # on as ``submitted``; the 500 is still the job's to raise
                self._publish_run(run_id, process.identifier, "failed",
                                  submitted_at, finished_at=self.sim.now,
                                  tenant=tenant)
                raise

        job = Job(cost=process.cost(inputs),
                  name=f"wps:{process.identifier}", compute=compute)

        def render(outputs):
            self._publish_run(run_id, process.identifier, "finished",
                              submitted_at, finished_at=self.sim.now,
                              outputs=outputs, tenant=tenant)
            return 200, {"status": "succeeded", "runId": run_id,
                         "outputs": outputs}

        return RestDeferred(job=job, render=render)

    def _execute_async(self, process: WpsProcess, inputs: Dict[str, Any],
                       tenant: Optional[str] = None):
        execution_id = f"exec-{next(_execution_ids):06d}"
        submitted_at = self.sim.now
        status_doc: Dict[str, Any] = {
            "status": "accepted",
            "process": process.identifier,
            "submitted_at": submitted_at,
        }
        if tenant is not None:
            status_doc["tenant"] = tenant
        self.status.put(execution_id, status_doc)
        self._publish_run(execution_id, process.identifier, "submitted",
                          submitted_at, tenant=tenant)

        def run_and_record():
            try:
                outputs = process.execute(inputs)
            except Exception as err:  # noqa: BLE001 - recorded as failure
                self.status.put(execution_id, {
                    "status": "failed",
                    "process": process.identifier,
                    "error": str(err),
                    "finished_at": self.sim.now,
                })
                self._publish_run(execution_id, process.identifier,
                                  "failed", submitted_at,
                                  finished_at=self.sim.now, tenant=tenant)
                return None
            self.status.put(execution_id, {
                "status": "succeeded",
                "process": process.identifier,
                "outputs": outputs,
                "finished_at": self.sim.now,
            })
            self._publish_run(execution_id, process.identifier, "finished",
                              submitted_at, finished_at=self.sim.now,
                              outputs=outputs, tenant=tenant)
            return outputs

        job = Job(cost=process.cost(inputs),
                  name=f"wps-async:{process.identifier}",
                  compute=run_and_record)
        return RestBackground(job=job, status=202, body={
            "status": "accepted",
            "executionId": execution_id,
            "statusLocation": f"/v1/wps/executions/{execution_id}",
        })

    def purge_executions(self, older_than_seconds: float) -> int:
        """Housekeeping: drop finished execution records older than a cutoff.

        The XaaS uniform view "simplifies housekeeping tasks"; this is
        one — async status documents accumulate in shared storage and a
        periodic purge keeps the container bounded.  Returns how many
        records were removed; running/accepted executions are kept.
        """
        cutoff = self.sim.now - older_than_seconds
        removed = 0
        for key in self.status.list():
            doc = self.status.get(key).payload
            finished = doc.get("finished_at")
            if doc.get("status") in ("succeeded", "failed") \
                    and finished is not None and finished < cutoff:
                self.status.delete(key)
                removed += 1
        return removed

    def _get_status(self, request: HttpRequest, params: Dict[str, str]):
        # status documents are polled until they settle; the blob etag
        # lets a poller revalidate instead of re-downloading the outputs
        execution_id = params["execution_id"]
        if not self.status.exists(execution_id):
            return 404, problem(404, "no such execution",
                                f"no execution {execution_id!r}",
                                retryable=False)
        blob = self.status.get(execution_id)
        return RestCacheable(body=dict(blob.payload), etag=blob.etag)
