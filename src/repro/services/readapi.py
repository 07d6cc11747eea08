"""The redesigned ``/v1`` read API over the data plane's views.

These are the routes the portal's million-reader traffic lands on, so
every one of them is a dictionary lookup against a materialized view —
never a recomputation from raw rows — and the heavy ones revalidate:

* ``GET /catchments`` — known catchments (paginated);
* ``GET /catchments/{catchment}/stats`` — the rolling-window stats
  document, ``ETag``-keyed on the per-catchment revision counter so an
  unchanged catchment answers ``304`` for header bytes;
* ``GET /observations/latest`` — the latest-observation table, cursor
  paginated over procedure ids;
* ``GET /runs`` — the run-summary index, cursor paginated in
  submission order, filterable by ``status``;
* ``GET /runs/{run_id}`` — one run's summary;
* ``GET /dataplane`` — pipeline health (lag, DLQ depth, view
  revisions) for the admin console.

All collection routes take ``cursor``/``limit`` and answer with
``nextCursor`` plus an RFC-8288 ``Link: rel="next"`` header; all
misses are RFC-7807 problems.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.services.envelope import problem
from repro.services.pagination import CursorError, paginate
from repro.services.rest import RestApi, RestCacheable
from repro.services.transport import HttpRequest
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataplane.plane import DataPlane


def build_read_api(sim: Simulator, plane: "DataPlane") -> RestApi:
    """The CQRS read-side route table over ``plane``'s views."""
    api = RestApi("read")

    def catchments(request: HttpRequest, params: Dict[str, str]):
        names = plane.stats.catchments()
        try:
            page = paginate(request, names, names)
        except CursorError as err:
            return 400, problem(400, "invalid cursor", str(err),
                                retryable=False)
        return 200, {"catchments": page.items, "total": page.total,
                     "nextCursor": page.next_cursor}, page.headers

    def catchment_stats(request: HttpRequest, params: Dict[str, str]):
        catchment = params["catchment"]
        stats = plane.stats.stats(catchment)
        if stats is None:
            return 404, problem(
                404, "no such catchment",
                f"no observations materialized for {catchment!r}",
                retryable=False)
        revision = plane.stats.catchment_revision(catchment)
        # the view shares its materialized document between readers;
        # what leaves the server is the response's own copy, which
        # carries the size the document was rendered at
        return RestCacheable(body=stats.copy(),
                             etag=f'"stats-{catchment}-{revision}"')

    def latest_observations(request: HttpRequest, params: Dict[str, str]):
        rows = plane.latest.rows()
        keys = [row["procedure"] for row in rows]
        try:
            page = paginate(request, rows, keys)
        except CursorError as err:
            return 400, problem(400, "invalid cursor", str(err),
                                retryable=False)
        return 200, {"observations": [row.copy() for row in page.items],
                     "total": page.total,
                     "nextCursor": page.next_cursor}, page.headers

    def runs(request: HttpRequest, params: Dict[str, str]):
        status = (request.query or {}).get("status")
        # the sort key is the run's position in the *unfiltered* index:
        # append-only, so cursors stay stable even when a run's status
        # (and thus its filtered membership) changes mid-pagination
        rows = plane.runs.rows()
        keys = range(len(rows))
        if status:
            keys = [i for i in keys if rows[i].get("status") == status]
            rows = [rows[i] for i in keys]
        try:
            page = paginate(request, rows, keys)
        except CursorError as err:
            return 400, problem(400, "invalid cursor", str(err),
                                retryable=False)
        return 200, {"runs": [row.copy() for row in page.items],
                     "total": page.total,
                     "nextCursor": page.next_cursor}, page.headers

    def run_detail(request: HttpRequest, params: Dict[str, str]):
        run = plane.runs.run(params["run_id"])
        if run is None:
            return 404, problem(404, "no such run",
                                f"no run {params['run_id']!r}",
                                retryable=False)
        return run

    def dataplane_health(request: HttpRequest, params: Dict[str, str]):
        body = plane.snapshot()
        body["time"] = sim.now
        return body

    # flat, tiny handler costs: the whole point of the materialized
    # read side is that serving cost does not grow with data volume
    api.get("/catchments", catchments, cost=0.002)
    api.get("/catchments/{catchment}/stats", catchment_stats, cost=0.002,
            cacheable=True)
    api.get("/observations/latest", latest_observations, cost=0.002)
    api.get("/runs", runs, cost=0.002)
    api.get("/runs/{run_id}", run_detail, cost=0.002)
    api.get("/dataplane", dataplane_health, cost=0.002)
    return api
