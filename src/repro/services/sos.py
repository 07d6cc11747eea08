"""OGC Sensor Observation Service (SOS) over the REST engine.

The live in-situ feeds (rain gauges, river-level sensors, webcams) are
published through SOS's core operation set: ``GetCapabilities``,
``DescribeSensor`` and ``GetObservation`` with temporal filtering.  The
service is backed by any *observation source* — an object exposing
``procedures()``, ``describe(procedure_id)`` and
``observations(procedure_id, begin, end)`` — which is how the data layer
plugs in without this module knowing about catchments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.instance import Instance
from repro.services.envelope import problem
from repro.services.pagination import CursorError, paginate
from repro.services.rest import RestApi, RestServer
from repro.services.transport import HttpRequest
from repro.sim import Simulator


@dataclass(frozen=True)
class SensorDescription:
    """The DescribeSensor document for one procedure."""

    procedure_id: str
    observed_property: str
    units: str
    latitude: float
    longitude: float
    catchment: str = ""
    description: str = ""

    def to_document(self) -> Dict[str, Any]:
        """Serialisable DescribeSensor response body."""
        return {
            "procedure": self.procedure_id,
            "observedProperty": self.observed_property,
            "uom": self.units,
            "position": {"lat": self.latitude, "lon": self.longitude},
            "catchment": self.catchment,
            "description": self.description,
        }


@dataclass(frozen=True)
class Observation:
    """One observed value at one instant."""

    procedure_id: str
    observed_property: str
    time: float
    value: float
    units: str

    def to_document(self) -> Dict[str, Any]:
        """Serialisable observation record."""
        return {
            "procedure": self.procedure_id,
            "observedProperty": self.observed_property,
            "time": self.time,
            "value": self.value,
            "uom": self.units,
        }


class SosService:
    """An SOS endpoint over an observation source."""

    def __init__(self, sim: Simulator, name: str, source: Any):
        self.sim = sim
        self.name = name
        self.source = source
        self.api = RestApi(f"sos.{name}")
        self.api.get("/sos", self._get_capabilities)
        self.api.get("/sos/sensors/{procedure_id}", self._describe_sensor)
        self.api.get("/sos/observations/{procedure_id}", self._get_observation,
                     cost=0.01)

    def replica(self, instance: Instance) -> RestServer:
        """Create a server replica of this service on ``instance``."""
        return RestServer(self.sim, self.api, instance)

    # -- handlers ---------------------------------------------------------------

    def _get_capabilities(self, request: HttpRequest, params: Dict[str, str]):
        offerings = []
        for procedure_id in self.source.procedures():
            desc: SensorDescription = self.source.describe(procedure_id)
            offerings.append({
                "procedure": procedure_id,
                "observedProperty": desc.observed_property,
                "catchment": desc.catchment,
            })
        return {"service": "SOS", "version": "2.0.0", "title": self.name,
                "offerings": offerings}

    def _describe_sensor(self, request: HttpRequest, params: Dict[str, str]):
        procedure_id = params["procedure_id"]
        if procedure_id not in self.source.procedures():
            return 404, problem(404, "no such procedure",
                                f"no procedure {procedure_id!r}",
                                retryable=False)
        return self.source.describe(procedure_id).to_document()

    def _get_observation(self, request: HttpRequest, params: Dict[str, str]):
        procedure_id = params["procedure_id"]
        if procedure_id not in self.source.procedures():
            return 404, problem(404, "no such procedure",
                                f"no procedure {procedure_id!r}",
                                retryable=False)
        try:
            begin, end = self._temporal_filter(request)
        except ValueError as err:
            return 400, problem(400, "invalid temporal filter", str(err),
                                retryable=False)
        observations: List[Observation] = self.source.observations(
            procedure_id, begin, end)
        documents = [obs.to_document() for obs in observations]
        body = {
            "procedure": procedure_id,
            "begin": begin,
            "end": end,
            "observations": documents,
        }
        # keyset: [time, position] — ties on time break by position, and
        # a later ingest only ever appends larger keys, so a cursor a
        # client is holding stays valid across new observations
        keys = [[doc["time"], i] for i, doc in enumerate(documents)]
        try:
            page = paginate(request, documents, keys)
        except CursorError as err:
            return 400, problem(400, "invalid cursor", str(err),
                                retryable=False)
        body["observations"] = page.items
        body["total"] = page.total
        body["nextCursor"] = page.next_cursor
        return 200, body, page.headers

    @staticmethod
    def _temporal_filter(request: HttpRequest) -> Tuple[float, float]:
        query = request.query or {}
        try:
            begin = float(query.get("begin", 0.0))
            end = float(query.get("end", float("inf")))
        except (TypeError, ValueError):
            raise ValueError(
                f"begin/end must be numbers, got begin={query.get('begin')!r} "
                f"end={query.get('end')!r}") from None
        return begin, end
