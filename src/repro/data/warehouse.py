"""Warehoused datasets over the blob store.

The 'warehoused data stores' origin: historical series and spatial
datasets curated by the EVOp team or partners, kept in object storage
and catalogued with units/provenance metadata.  The warehouse
(de)serialises :class:`~repro.hydrology.timeseries.TimeSeries` payloads
so the data layer and the storage substrate stay decoupled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cloud.storage import BlobStore, Container
from repro.hydrology.timeseries import TimeSeries


class DataWarehouse:
    """Named datasets in one blob-store container.

    Deserialisation is memoised by blob etag: the widgets poll the same
    few series over and over, and rebuilding a :class:`TimeSeries` from
    the payload on every read is pure waste.  A cached instance is safe
    to share because a ``TimeSeries`` never mutates after construction.
    The memo is keyed per dataset and validated against the *current*
    blob etag on every read, so an overwrite is never served stale.
    """

    CONTAINER = "warehouse"
    #: bound on the deserialisation memo (datasets, not bytes)
    MEMO_ENTRIES = 256

    def __init__(self, store: BlobStore):
        self._container: Container = store.create_container(self.CONTAINER)
        self._memo: "OrderedDict[str, Tuple[str, TimeSeries]]" = OrderedDict()
        self._outbox = None

    def attach_outbox(self, outbox) -> None:
        """Announce every dataset write/delete as a data-plane event.

        The outbox record lands in the same cooperative step as the
        blob write — the transactional-outbox guarantee that derived
        views never miss (or double-see) a warehouse change.
        """
        self._outbox = outbox

    def put_series(self, dataset_id: str, series: TimeSeries,
                   provenance: str = "") -> None:
        """Store a time series under ``dataset_id``."""
        payload = {
            "start": series.start,
            "dt": series.dt,
            "values": series.values,
            "units": series.units,
            "name": series.name,
        }
        self._container.put(dataset_id, payload, metadata={
            "type": "timeseries",
            "units": series.units,
            "provenance": provenance,
            "length": str(len(series)),
        })
        if self._outbox is not None:
            self._outbox.record("warehouse", "series.put", key=dataset_id,
                                payload={"units": series.units,
                                         "samples": len(series),
                                         "provenance": provenance})

    def get_series(self, dataset_id: str) -> TimeSeries:
        """Fetch a stored series (raises BlobNotFound if absent)."""
        blob = self._container.get(dataset_id)
        memo = self._memo.get(dataset_id)
        if memo is not None and memo[0] == blob.etag:
            self._memo.move_to_end(dataset_id)
            return memo[1]
        payload = blob.payload
        series = TimeSeries(payload["start"], payload["dt"],
                            payload["values"],
                            units=payload["units"], name=payload["name"])
        self._memo[dataset_id] = (blob.etag, series)
        self._memo.move_to_end(dataset_id)
        while len(self._memo) > self.MEMO_ENTRIES:
            self._memo.popitem(last=False)
        return series

    def etag_of(self, dataset_id: str) -> str:
        """The stored blob's etag — the revalidation token REST hands out."""
        return self._container.get(dataset_id).etag

    def exists(self, dataset_id: str) -> bool:
        """Whether a dataset is stored."""
        return self._container.exists(dataset_id)

    def delete(self, dataset_id: str) -> None:
        """Remove a dataset."""
        self._container.delete(dataset_id)
        self._memo.pop(dataset_id, None)
        if self._outbox is not None:
            self._outbox.record("warehouse", "series.deleted",
                                key=dataset_id, payload={})

    def list(self, prefix: str = "") -> List[str]:
        """Dataset ids with the given prefix, sorted."""
        return self._container.list(prefix)

    def describe(self, dataset_id: str) -> Dict[str, str]:
        """A dataset's metadata (units, provenance, length)."""
        return dict(self._container.get(dataset_id).metadata)
