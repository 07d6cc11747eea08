"""Workflow DAG model.

A :class:`Workflow` is a named set of :class:`WorkflowNode` execution
units with explicit dependencies.  Nodes compute
``fn(params, upstream_outputs) -> output``; validation rejects cycles,
unknown dependencies and duplicate ids at construction time so the
engine can assume a well-formed graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


class CycleError(ValueError):
    """The dependency graph contains a cycle."""


@dataclass
class WorkflowNode:
    """One basic execution unit.

    ``fn(params, upstream)`` receives the workflow parameters and a dict
    of dependency outputs keyed by node id.  ``params_used`` names the
    workflow parameters the node's output depends on — the cache key
    honours only those, so tweaking an unrelated parameter doesn't
    invalidate the stage.  ``service_call`` (set by
    :func:`~repro.workflow.cloud.service_node`) marks a node whose
    execution is a WPS Execute rather than ``fn``.
    """

    node_id: str
    fn: Callable[[Dict[str, Any], Dict[str, Any]], Any]
    depends_on: Sequence[str] = ()
    params_used: Sequence[str] = ()
    description: str = ""
    service_call: Optional[Any] = None


class Workflow:
    """A named DAG of execution units."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: Dict[str, WorkflowNode] = {}

    def add(self, node: WorkflowNode) -> "Workflow":
        """Add a node; returns self for chaining."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node {node.node_id!r}")
        self._nodes[node.node_id] = node
        return self

    def nodes(self) -> List[WorkflowNode]:
        """All nodes, insertion order."""
        return list(self._nodes.values())

    def validate(self) -> None:
        """Check dependencies exist and the graph is acyclic."""
        for node in self._nodes.values():
            for dep in node.depends_on:
                if dep not in self._nodes:
                    raise ValueError(
                        f"node {node.node_id!r} depends on unknown {dep!r}")
        self.topological_order()

    def topological_order(self) -> List[WorkflowNode]:
        """Nodes in dependency order (Kahn's algorithm).

        Raises :class:`CycleError` if the graph has a cycle.
        """
        indegree = {nid: 0 for nid in self._nodes}
        dependents: Dict[str, List[str]] = {nid: [] for nid in self._nodes}
        for node in self._nodes.values():
            for dep in node.depends_on:
                if dep not in self._nodes:
                    raise ValueError(f"unknown dependency {dep!r}")
                indegree[node.node_id] += 1
                dependents[dep].append(node.node_id)
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        order: List[WorkflowNode] = []
        while ready:
            nid = ready.pop(0)
            order.append(self._nodes[nid])
            for child in dependents[nid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._nodes):
            stuck = sorted(nid for nid, deg in indegree.items() if deg > 0)
            raise CycleError(f"cycle involving {stuck}")
        return order
