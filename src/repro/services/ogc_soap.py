"""SOAP bindings for the OGC services — the Section IV-B compromise.

"The main stumbling block was that most of the standards in the
geospatial analysis community are specified using SOAP services.
Conforming to these standards is of high priority ... This meant not
having a completely RESTful architecture in order to enable easy
integration of models and composing more sophisticated OGC-compliant
web services.  We find this a fair compromise."

:class:`SoapWpsBinding` exposes a :class:`~repro.services.wps.WpsService`
through SOAP operations (``GetCapabilities`` / ``DescribeProcess`` /
``Execute``) on the *same* instance as the REST replica, so legacy OGC
clients and the portal share one deployment.  SOAP sessions are used
only as the standard demands — the execution itself still delegates to
the stateless process objects, so no scientific state is trapped on the
server.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cloud.instance import Instance, Job, ignore
from repro.services.soap import SoapServer, SoapSession
from repro.services.wps import WpsService
from repro.sim import Simulator


class SoapWpsBinding:
    """A SOAP endpoint fronting a WPS service on one instance.

    The binding registers the three standard operations.  ``Execute``
    charges the process's full cost to the hosting instance — exactly
    what the REST path does — so capacity accounting is identical no
    matter which protocol a client speaks.
    """

    def __init__(self, sim: Simulator, wps: WpsService, instance: Instance):
        self.sim = sim
        self.wps = wps
        self.instance = instance
        self.server = SoapServer(sim, f"soap.{wps.name}", instance)
        self.server.operation("GetCapabilities", self._get_capabilities)
        self.server.operation("DescribeProcess", self._describe_process)
        self.server.operation("Execute", self._execute)

    def bind(self, network) -> "SoapWpsBinding":
        """Register the SOAP server on the network; returns self."""
        self.server.bind(network)
        return self

    # -- operations ----------------------------------------------------------

    def _get_capabilities(self, session: SoapSession, payload: Any):
        return {
            "service": "WPS",
            "version": "1.0.0",
            "binding": "SOAP",
            "processes": self.wps.processes(),
        }

    def _describe_process(self, session: SoapSession, payload: Any):
        identifier = (payload or {}).get("identifier")
        process = self.wps._processes.get(identifier)
        if process is None:
            raise ValueError(f"no process {identifier!r}")
        return process.description.to_document()

    def _execute(self, session: SoapSession, payload: Any):
        """Synchronous Execute.

        The SOAP layer validates inputs and runs the process *inline*
        within its own (already-charged) server job plus an additional
        job covering the model cost, mirroring the REST deferred path.
        The response document follows the WPS ExecuteResponse shape.
        """
        payload = payload or {}
        identifier = payload.get("identifier")
        process = self.wps._processes.get(identifier)
        if process is None:
            raise ValueError(f"no process {identifier!r}")
        inputs = process.validate(payload.get("inputs", {}))
        # charge the model run to the instance: the SOAP handler job has
        # already been paid for, the model cost is burnt synchronously
        # here (host-instantaneous, simulated via the surcharge job)
        self.instance.submit(Job(cost=process.cost(inputs),
                                 name=f"soap-wps:{identifier}"), ignore)
        outputs = process.execute(inputs)
        session.state["last_execution"] = identifier
        return {
            "status": "ProcessSucceeded",
            "process": identifier,
            "outputs": outputs,
        }
