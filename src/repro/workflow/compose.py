"""Service composition: publish a workflow as a new WPS process.

The XaaS promise includes "to compose new services" from existing ones
(Sections III-A and VI: a "mashup culture where resources can be shared,
reused, and combined to create more sophisticated assets").  This module
closes that loop: a validated :class:`~repro.workflow.dag.Workflow`
becomes a first-class :class:`~repro.services.wps.WpsProcess` — the
composite runs behind the same Execute operation, deployable on the same
replicas, and other workflows can call *it* in turn.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.services.wps import InputSpec, ProcessDescription, WpsProcess
from repro.workflow.dag import Workflow
from repro.workflow.engine import WorkflowEngine

#: simulated CPU seconds an Execute of a composite charges per stage
COST_PER_STAGE = 0.5


def compose_wps_process(workflow: Workflow,
                        identifier: str,
                        title: str,
                        inputs: Sequence[InputSpec],
                        output_node: str,
                        engine: Optional[WorkflowEngine] = None
                        ) -> WpsProcess:
    """Wrap ``workflow`` as a WPS process.

    ``inputs`` declare the process interface; they are passed through as
    the workflow's parameters.  ``output_node``'s output becomes the
    Execute response (it must be a dict).  The engine is shared across
    invocations, so repeated Executes with identical parameters enjoy the
    workflow cache — a composed service inherits replay-cheapness.
    """
    workflow.validate()
    if output_node not in {n.node_id for n in workflow.nodes()}:
        raise ValueError(f"unknown output node {output_node!r}")
    shared_engine = engine if engine is not None else WorkflowEngine()

    description = ProcessDescription(
        identifier=identifier,
        title=title,
        abstract=f"Composite process over workflow {workflow.name!r}",
        inputs=list(inputs),
        outputs=[output_node],
    )

    def run(validated_inputs: Dict[str, Any]) -> Dict[str, Any]:
        record = shared_engine.run(workflow, validated_inputs)
        output = record.outputs[output_node]
        if not isinstance(output, dict):
            output = {"value": output}
        result = dict(output)
        result["provenance"] = {
            "workflow": workflow.name,
            "run_id": record.run_id,
            "stages": [s.node_id for s in record.stages],
            "cache_hits": record.cache_hits(),
        }
        return result

    def cost(validated_inputs: Dict[str, Any]) -> float:
        return COST_PER_STAGE * len(workflow.nodes())

    return WpsProcess(description, run=run, cost=cost)
