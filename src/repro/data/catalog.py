"""The geospatial asset catalogue behind the portal map.

Figure 4's landing page lays "datasets (both static and live) and other
assets (such as webcam feeds) ... on the map as geotagged markers".  An
:class:`Asset` is one marker: its position, kind, origin (EVOp supports
"data assets of different origins: from in situ gauging stations,
warehoused data stores, user provided, and external sources") and the
access pointer (a service address or blob key).  The catalogue answers
the map's bounding-box queries and the filters the widgets use.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class AssetOrigin(enum.Enum):
    """Where an asset's data come from."""

    IN_SITU = "in-situ"
    WAREHOUSED = "warehoused"
    USER_PROVIDED = "user-provided"
    EXTERNAL = "external"


@dataclass(frozen=True)
class BoundingBox:
    """A lat/lon rectangle (the map viewport)."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.north < self.south or self.east < self.west:
            raise ValueError("inverted bounding box")

    def contains(self, latitude: float, longitude: float) -> bool:
        """Whether the point lies inside the box (inclusive)."""
        return (self.south <= latitude <= self.north
                and self.west <= longitude <= self.east)


@dataclass
class Asset:
    """One geotagged catalogue entry / map marker."""

    asset_id: str
    name: str
    kind: str                   # "sensor-feed" | "webcam" | "dataset" | "model" | ...
    origin: AssetOrigin
    latitude: float
    longitude: float
    catchment: str = ""
    access: str = ""            # service address, blob key, or URL
    metadata: Dict[str, str] = field(default_factory=dict)


class AssetCatalog:
    """Registry + query layer over geotagged assets."""

    def __init__(self) -> None:
        self._assets: Dict[str, Asset] = {}
        self._ids = itertools.count()

    def add(self, name: str, kind: str, origin: AssetOrigin,
            latitude: float, longitude: float, catchment: str = "",
            access: str = "", metadata: Optional[Dict[str, str]] = None
            ) -> Asset:
        """Register an asset; returns it with a fresh id."""
        asset = Asset(
            asset_id=f"asset-{next(self._ids):05d}",
            name=name, kind=kind, origin=origin,
            latitude=latitude, longitude=longitude,
            catchment=catchment, access=access,
            metadata=dict(metadata or {}),
        )
        self._assets[asset.asset_id] = asset
        return asset

    def get(self, asset_id: str) -> Asset:
        """Look an asset up by id."""
        return self._assets[asset_id]

    def remove(self, asset_id: str) -> bool:
        """Delete an asset; returns whether it existed."""
        return self._assets.pop(asset_id, None) is not None

    def all(self) -> List[Asset]:
        """Every asset, in registration order."""
        return list(self._assets.values())

    def in_bbox(self, bbox: BoundingBox) -> List[Asset]:
        """Markers inside the map viewport."""
        return [a for a in self._assets.values()
                if bbox.contains(a.latitude, a.longitude)]

    def by_kind(self, kind: str) -> List[Asset]:
        """Assets of one kind."""
        return [a for a in self._assets.values() if a.kind == kind]

    def by_catchment(self, catchment: str) -> List[Asset]:
        """Assets in one catchment."""
        return [a for a in self._assets.values() if a.catchment == catchment]

    def by_origin(self, origin: AssetOrigin) -> List[Asset]:
        """Assets from one origin."""
        return [a for a in self._assets.values() if a.origin == origin]

    def __len__(self) -> int:
        return len(self._assets)
