"""Stateful, transaction-oriented SOAP baseline.

Section IV-B argues that SOAP-style services "require high communication
and operation overheads in order to maintain transaction state on the
server" with "a knock on effect on performance, scalability, and fault
tolerance".  This module implements exactly that style so the benches can
measure the effect:

* clients must ``begin`` a session on one specific server;
* every subsequent call must hit *that* server (state lives there);
* each call pays envelope overhead on the wire and a state-bookkeeping
  CPU surcharge on the server;
* when the server dies, every session it held is lost.

It is also the substrate for the OGC-standard endpoints where the
standard is SOAP-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.cloud.instance import Instance, Job
from repro.obs.refusal import Cause, refuse
from repro.services.envelope import refusal_problem
from repro.services.transport import (
    HttpRequest,
    HttpResponse,
    Network,
    SOAP_ENVELOPE_BYTES,
)
from repro.sim import Signal, Simulator
from repro.tenancy.context import DEFAULT_TENANT, TENANT_HEADER

#: Extra CPU charge per call for transaction-state bookkeeping.
STATE_BOOKKEEPING_COST = 0.004


@dataclass
class SoapFault:
    """A SOAP fault body (returned inside an HTTP 500).

    ``retryable`` mirrors the problem-document field: ``Client.*`` faults
    are permanent, but a ``Server`` fault from a transient condition may
    set it so resilient callers know a replay can help.
    """

    code: str
    reason: str
    retryable: bool = False


@dataclass
class SoapSession:
    """Server-held conversational state for one client."""

    session_id: str
    server_address: str
    state: Dict[str, Any] = field(default_factory=dict)
    operations: int = 0


class SoapServer:
    """A stateful service endpoint bound to one instance.

    Operations are registered as ``fn(session, payload) -> result``;
    the reserved operations ``begin`` and ``end`` manage sessions.
    """

    def __init__(self, sim: Simulator, name: str, instance: Instance,
                 operation_cost: float = 0.005):
        self.sim = sim
        self.name = name
        self.instance = instance
        self.operation_cost = operation_cost
        self._operations: Dict[str, Callable[[SoapSession, Any], Any]] = {}
        self._sessions: Dict[str, SoapSession] = {}

    @property
    def address(self) -> str:
        """Network address of the hosting instance."""
        return self.instance.address

    def bind(self, network: Network) -> "SoapServer":
        """Register on the network; returns self."""
        network.register(self.instance.address, self, self.instance)
        return self

    def operation(self, name: str,
                  fn: Callable[[SoapSession, Any], Any]) -> None:
        """Register operation ``name``."""
        self._operations[name] = fn

    # -- request handling -------------------------------------------------------

    def handle(self, request: HttpRequest) -> Signal:
        """Process a SOAP call: body = {op, session_id, payload}."""
        done = self.sim.signal(f"soap.{self.name}")
        body = request.body or {}
        op = body.get("op")
        cost = self.operation_cost + STATE_BOOKKEEPING_COST

        def run() -> Any:
            if op == "begin":
                session = SoapSession(
                    session_id=f"soap-{self.sim.next_id('soap'):06d}",
                    server_address=self.instance.address)
                self._sessions[session.session_id] = session
                return {"session_id": session.session_id}
            session_id = body.get("session_id")
            session = self._sessions.get(session_id)
            if session is None:
                return SoapFault(code="Client.NoSuchSession",
                                 reason=f"unknown session {session_id!r}")
            session.operations += 1
            if op == "end":
                del self._sessions[session_id]
                return {"ended": session_id, "operations": session.operations}
            fn = self._operations.get(op)
            if fn is None:
                return SoapFault(code="Client.NoSuchOperation",
                                 reason=f"unknown operation {op!r}")
            return fn(session, body.get("payload"))

        job = Job(cost=cost, name=f"soap:{op}", compute=run)

        def on_outcome(outcome) -> None:
            if not outcome.succeeded:
                if outcome.error == "queue full":
                    # previously a silent drop that forced the caller to
                    # burn its full timeout; an explicit 503 problem lets
                    # a resilient client back off and try again
                    tenant = request.headers.get(TENANT_HEADER, DEFAULT_TENANT)
                    event = refuse(self.sim, Cause.SERVER_OVERLOADED,
                                   tenant=tenant, service=self.name,
                                   instance=self.instance.instance_id,
                                   detail="accept queue full")
                    done.fire(HttpResponse(status=503,
                                           body=refusal_problem(event)))
                elif outcome.error and outcome.error.startswith("job raised"):
                    done.fire(HttpResponse(status=500,
                                           body=SoapFault("Server", outcome.error)))
                return
            result = outcome.value
            if isinstance(result, SoapFault):
                done.fire(HttpResponse(status=500, body=result))
            else:
                done.fire(HttpResponse(status=200, body=result))

        self.instance.submit(job).then(on_outcome)
        return done


class SoapClient:
    """Client-side helper that pays SOAP envelope overhead per call."""

    def __init__(self, network: Network, address: str):
        self.network = network
        self.address = address
        self.session_id: Optional[str] = None

    def call(self, op: str, payload: Any = None,
             timeout: float = 30.0) -> Signal:
        """Invoke ``op``; returns the transport signal."""
        body = {"op": op, "payload": payload}
        if self.session_id is not None:
            body["session_id"] = self.session_id
        return self.network.request(
            self.address,
            HttpRequest(method="POST", path=f"/soap/{op}", body=body),
            timeout=timeout,
            extra_request_bytes=SOAP_ENVELOPE_BYTES,
            extra_response_bytes=SOAP_ENVELOPE_BYTES,
        )
