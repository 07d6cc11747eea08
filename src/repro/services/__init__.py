"""Web-service fabric of the EVOp infrastructure.

Everything in EVOp is "as a service": datasets, models and management
functions are resources behind uniform interfaces.  This package
reproduces that fabric over the simulated network:

* :mod:`repro.services.transport` — the simulated HTTP-ish network
  (latency, byte accounting, timeouts, dead-instance behaviour).
* :mod:`repro.services.rest` — stateless resource-oriented engine, the
  paper's architectural default.
* :mod:`repro.services.soap` — stateful transaction-oriented baseline the
  paper argues against (kept for the comparison benchmarks, and because
  OGC standards are SOAP-shaped).
* :mod:`repro.services.wps` / :mod:`repro.services.sos` — the two OGC
  standards EVOp adopts for models and sensors.
* :mod:`repro.services.channels` — HTML5-WebSocket-style duplex push and
  the periodic-polling baseline.
* :mod:`repro.services.registry` — the service catalogue.
* :mod:`repro.services.envelope` — the one RFC-7807-style problem
  document every error body is built from.
* :mod:`repro.services.client` — the typed v1 client every consumer
  goes through (resilient, revalidating).
"""

from repro.services.client import RestClient
from repro.services.envelope import problem
from repro.services.transport import (
    ConnectionRefused,
    HttpRequest,
    HttpResponse,
    Network,
    RequestTimeout,
)
from repro.services.rest import (
    HttpError,
    RestApi,
    RestBackground,
    RestDeferred,
    RestServer,
    Route,
)
from repro.services.soap import SoapClient, SoapFault, SoapServer, SoapSession
from repro.services.ogc_soap import SoapWpsBinding
from repro.services.wps import (
    InputSpec,
    ProcessDescription,
    WpsProcess,
    WpsService,
)
from repro.services.sos import (
    Observation,
    SensorDescription,
    SosService,
)
from repro.services.channels import (
    ChannelClosed,
    PollingClient,
    PushGateway,
    WebSocketConnection,
)
from repro.services.registry import ServiceRecord, ServiceRegistry

__all__ = [
    "ChannelClosed",
    "ConnectionRefused",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "InputSpec",
    "Network",
    "Observation",
    "PollingClient",
    "ProcessDescription",
    "PushGateway",
    "RequestTimeout",
    "RestApi",
    "RestBackground",
    "RestClient",
    "RestDeferred",
    "RestServer",
    "Route",
    "problem",
    "SensorDescription",
    "ServiceRecord",
    "ServiceRegistry",
    "SoapClient",
    "SoapFault",
    "SoapServer",
    "SoapSession",
    "SoapWpsBinding",
    "SosService",
    "WebSocketConnection",
    "WpsProcess",
    "WpsService",
]
