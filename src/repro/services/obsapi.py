"""The `/v1/observability` API: the telemetry plane over the wire.

Operators (and the admin console, and the bench's protected client) read
the deployment's health the same way stakeholders read catchment data —
through a versioned REST service on the simulated network, with RFC-7807
problems for misses and ``ETag`` revalidation on the heavy read paths
(a span tree is immutable once its trace goes quiet; polling it should
cost header bytes, not payload bytes).

Routes (mounted under ``/v1``, like every other API in the fabric):

* ``GET /observability/health`` — composite health score + plane vitals;
* ``GET /observability/slo`` — per-SLO state with burn rates;
* ``GET /observability/alerts`` — firing alerts + transition history;
* ``GET /observability/metrics`` — the series catalogue;
* ``GET /observability/metrics/{name}`` — range query (``start``/``end``
  query params; any other query key is a label matcher);
* ``GET /observability/exemplars/{metric}`` — trace exemplars retained
  by a histogram's buckets, worst first;
* ``GET /observability/traces/{trace_id}`` — the span tree, nested and
  rendered.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

from repro.obs.export import render_tree, span_tree
from repro.obs.tracer import Tracer
from repro.perf.keys import content_key
from repro.services.envelope import problem
from repro.services.rest import RestApi, RestCacheable
from repro.services.transport import HttpRequest
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import TelemetryPlane

#: points returned per series by a range query before downsampling
MAX_POINTS_PER_SERIES = 500


def build_observability_api(sim: Simulator, plane: "TelemetryPlane",
                            tracer: Tracer) -> RestApi:
    """The observability route table over ``plane`` and ``tracer``."""
    api = RestApi("observability")

    def health(request: HttpRequest, params: Dict[str, str]):
        body = dict(plane.snapshot())
        body["time"] = sim.now
        return body

    def slo_status(request: HttpRequest, params: Dict[str, str]):
        return {"time": sim.now, "slos": plane.slo_status()}

    def alerts(request: HttpRequest, params: Dict[str, str]):
        return {
            "time": sim.now,
            "firing": plane.firing_alerts(),
            "history": list(plane.alerts.history),
        }

    def metric_names(request: HttpRequest, params: Dict[str, str]):
        body = {"names": plane.store.names(),
                "series": plane.store.series_count()}
        return RestCacheable(body=body, etag=content_key(body, "metrics"))

    def metric_range(request: HttpRequest, params: Dict[str, str]):
        name = params["name"]
        query = dict(request.query)
        try:
            start = float(query.pop("start")) if "start" in query else None
            end = float(query.pop("end")) if "end" in query else None
        except ValueError:
            return 400, problem(400, "bad range",
                                "start/end must be numbers", retryable=False)
        matches = plane.store.query(name, **query)
        if not matches:
            return 404, problem(
                404, "no such metric",
                f"no series named {name!r} matching {query}",
                retryable=False)
        series_out = []
        for series in matches:
            points = series.points(start, end)
            if len(points) > MAX_POINTS_PER_SERIES:
                # evenly thinned, endpoints kept: a dashboard wants the
                # shape of an hour, not ten thousand rows of it
                step = len(points) / float(MAX_POINTS_PER_SERIES)
                points = [points[int(i * step)]
                          for i in range(MAX_POINTS_PER_SERIES - 1)] \
                    + [points[-1]]
            series_out.append({"labels": dict(series.labels),
                               "points": [[t, v] for t, v in points]})
        return {"name": name, "series": series_out}

    def exemplars(request: HttpRequest, params: Dict[str, str]):
        try:
            floor = float(request.query.get("min", 0.0))
        except ValueError:
            return 400, problem(400, "bad threshold",
                                "min must be a number", retryable=False)
        found = plane.exemplars(params["metric"], min_value=floor)
        if not found:
            return 404, problem(
                404, "no exemplars",
                f"no bucket of {params['metric']!r} retains an exemplar "
                f"above {floor}", retryable=False)
        return {"metric": params["metric"], "exemplars": found}

    def trace(request: HttpRequest, params: Dict[str, str]):
        trace_id = params["trace_id"]
        spans = tracer.spans(trace_id=trace_id)
        if not spans:
            return 404, problem(404, "no such trace",
                                f"no spans for trace {trace_id!r}",
                                retryable=False)
        roots = span_tree(spans, trace_id=trace_id)
        body: Dict[str, Any] = {
            "trace_id": trace_id,
            "spans": [
                {
                    "name": s.name,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "start": s.start,
                    "end": s.end,
                    "status": s.status,
                    "error": s.error,
                } for s in sorted(spans,
                                  key=lambda s: (s.start, s.span_id))
            ],
            "rendered": render_tree(roots),
        }
        return RestCacheable(body=body,
                             etag=content_key(body, f"trace/{trace_id}"))

    api.get("/observability/health", health, cost=0.002)
    api.get("/observability/slo", slo_status, cost=0.002)
    api.get("/observability/alerts", alerts, cost=0.002)
    api.get("/observability/metrics", metric_names, cost=0.002,
            cacheable=True)
    api.get("/observability/metrics/{name}", metric_range, cost=0.005)
    api.get("/observability/exemplars/{metric}", exemplars, cost=0.003)
    api.get("/observability/traces/{trace_id}", trace, cost=0.005,
            cacheable=True)
    return api
