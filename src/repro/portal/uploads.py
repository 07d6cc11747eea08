"""User-provided data: the upload path of the XaaS catalogue.

Section III-B lists "user provided" among the asset origins EVOp
supports, and the scientists' requirement includes "find or upload data,
use it to run predictive models".  :class:`UploadService` is the REST
endpoint for that path: a POSTed series lands in the warehouse, is
catalogued with ``AssetOrigin.USER_PROVIDED``, and is immediately
runnable through the ``rainfall_dataset`` input of the WPS processes —
without the uploader ever granting anyone else raw access (the
"delegation without giving data away" property of Section VI).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.cloud.instance import Instance
from repro.data.catalog import AssetCatalog, AssetOrigin
from repro.data.warehouse import DataWarehouse
from repro.hydrology.timeseries import TimeSeries
from repro.services.envelope import problem
from repro.services.pagination import CursorError, paginate
from repro.services.rest import RestApi, RestCacheable, RestServer
from repro.services.transport import HttpRequest
from repro.sim import Simulator


class UploadService:
    """REST endpoint for user-provided datasets."""

    def __init__(self, sim: Simulator, warehouse: DataWarehouse,
                 catalog: AssetCatalog, policy=None):
        self.sim = sim
        self.warehouse = warehouse
        self.catalog = catalog
        self.policy = policy    # optional AccessPolicy for restricted data
        self.api = RestApi("uploads")
        self.api.post("/uploads", self._upload, cost=0.02)
        self.api.get("/uploads", self._list, cost=0.005)
        self.api.get("/uploads/{dataset_id}", self._describe, cacheable=True)
        self.api.get("/uploads/{dataset_id}/data", self._download,
                     cacheable=True)

    def replica(self, instance: Instance) -> RestServer:
        """Create a server replica on ``instance``."""
        return RestServer(self.sim, self.api, instance)

    # -- handlers -----------------------------------------------------------

    def _upload(self, request: HttpRequest, params: Dict[str, str]):
        body = request.body or {}
        fault = self._validate(body)
        if fault:
            return 400, problem(400, "invalid upload", fault, retryable=False)
        dataset_id = f"user/{body['owner']}/{body['name']}"
        series = TimeSeries(float(body.get("start", 0.0)),
                            float(body["dt"]),
                            [float(v) for v in body["values"]],
                            units=body.get("units", ""),
                            name=body["name"])
        self.warehouse.put_series(dataset_id, series,
                                  provenance=f"uploaded by {body['owner']}")
        if self.policy is not None:
            self.policy.register(dataset_id, owner=body["owner"],
                                 restricted=bool(body.get("restricted")))
        asset = self.catalog.add(
            name=body["name"],
            kind="dataset",
            origin=AssetOrigin.USER_PROVIDED,
            latitude=float(body.get("latitude", 0.0)),
            longitude=float(body.get("longitude", 0.0)),
            catchment=body.get("catchment", ""),
            access=dataset_id,
            metadata={"owner": body["owner"],
                      "units": body.get("units", "")},
        )
        return 201, {"datasetId": dataset_id, "assetId": asset.asset_id,
                     "samples": len(series)}

    def _list(self, request: HttpRequest, params: Dict[str, str]):
        """Paginated listing of user-provided datasets.

        Dataset ids are the sort keys — the warehouse lists them
        sorted, and new uploads only add keys, so cursors stay stable
        across ingest.
        """
        ids = self.warehouse.list(prefix="user/")
        try:
            page = paginate(request, ids, ids)
        except CursorError as err:
            return 400, problem(400, "invalid cursor", str(err),
                                retryable=False)
        datasets = [dict(self.warehouse.describe(dataset_id),
                         datasetId=dataset_id)
                    for dataset_id in page.items]
        return 200, {"datasets": datasets, "total": page.total,
                     "nextCursor": page.next_cursor}, page.headers

    def _describe(self, request: HttpRequest, params: Dict[str, str]):
        # path params cannot contain '/', so ids arrive URL-style encoded
        dataset_id = params["dataset_id"].replace("__", "/")
        if not self.warehouse.exists(dataset_id):
            return 404, problem(404, "no such dataset",
                                f"no dataset {dataset_id!r}", retryable=False)
        return RestCacheable(body=self.warehouse.describe(dataset_id),
                             etag=self.warehouse.etag_of(dataset_id))

    def _download(self, request: HttpRequest, params: Dict[str, str]):
        """Raw download, ACL-enforced via the X-Principal header.

        This is the endpoint the delegation model guards: restricted
        data cannot be pulled raw by a non-owner, even though the same
        user can run models against it.
        """
        dataset_id = params["dataset_id"].replace("__", "/")
        if not self.warehouse.exists(dataset_id):
            return 404, problem(404, "no such dataset",
                                f"no dataset {dataset_id!r}", retryable=False)
        principal = request.headers.get("X-Principal")
        if self.policy is not None:
            from repro.data.access import AccessDenied
            try:
                self.policy.check(dataset_id, principal)
            except AccessDenied as err:
                return 403, problem(403, "access denied", str(err),
                                    retryable=False)
        series = self.warehouse.get_series(dataset_id)
        return RestCacheable(
            body={
                "datasetId": dataset_id,
                "start": series.start,
                "dt": series.dt,
                "values": series.values,
                "units": series.units,
            },
            etag=self.warehouse.etag_of(dataset_id),
        )

    @staticmethod
    def _validate(body: Dict[str, Any]) -> Optional[str]:
        for field in ("owner", "name", "dt", "values"):
            if not body.get(field):
                return f"missing field {field!r}"
        if "/" in body["name"] or "/" in body["owner"]:
            return "owner and name must not contain '/'"
        try:
            dt = float(body["dt"])
        except (TypeError, ValueError):
            return "dt must be a number"
        if dt <= 0:
            return "dt must be positive"
        values = body["values"]
        if not isinstance(values, (list, tuple)) or len(values) < 2:
            return "values must be a list of at least two samples"
        try:
            floats = [float(v) for v in values]
        except (TypeError, ValueError):
            return "values must be numeric"
        if any(math.isinf(v) for v in floats):
            return "values must be finite"
        if any(v < 0 for v in floats if not math.isnan(v)):
            return "rainfall values must be non-negative"
        return None
