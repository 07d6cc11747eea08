"""Region topology: the estate's map of failure domains.

A region is a named failure domain holding one full copy of the stack
(providers, blob store, warehouse, journals, scheduling cell).  The
topology is the shared book of which regions exist, in which
preference order, and what state each is in — every geo component
(router, replicator, election, failover coordinator) consults it
rather than keeping a private health opinion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.obs.hub import obs_of
from repro.sim import Simulator


class RegionStatus(enum.Enum):
    """One region's serving state."""

    #: Serving normally.
    HEALTHY = "healthy"
    #: Impaired (brownout): still serving, but new sessions spill over.
    DEGRADED = "degraded"
    #: Lost: nothing in the region serves; traffic and leadership move.
    DOWN = "down"


@dataclass(frozen=True)
class RegionTransition:
    """One recorded status change."""

    time: float
    region: str
    previous: RegionStatus
    status: RegionStatus


def qualify(region: str, location: str) -> str:
    """The estate-global label of a region-local location."""
    return f"{region}/{location}"


class RegionTopology:
    """Ordered regions plus their current status.

    The registration order is the global preference order (the same
    convention :class:`~repro.cloud.multicloud.MultiCloud` uses for
    locations); :meth:`nearest` treats it as a ring so every region
    has a deterministic neighbour order for spillover and failover.
    """

    def __init__(self, sim: Simulator, regions: Sequence[str]):
        if not regions:
            raise ValueError("a topology needs at least one region")
        if len(set(regions)) != len(regions):
            raise ValueError(f"duplicate region names in {list(regions)!r}")
        self.sim = sim
        self._order: List[str] = list(regions)
        self._status = {region: RegionStatus.HEALTHY for region in regions}
        self.transitions: List[RegionTransition] = []

    def regions(self) -> List[str]:
        """All regions in preference order."""
        return list(self._order)

    def status(self, region: str) -> RegionStatus:
        """The current status of ``region``."""
        try:
            return self._status[region]
        except KeyError:
            raise ValueError(f"unknown region {region!r}") from None

    def mark(self, region: str, status: RegionStatus) -> None:
        """Record a status change (no-op when unchanged)."""
        previous = self.status(region)
        if previous is status:
            return
        self._status[region] = status
        self.transitions.append(RegionTransition(
            time=self.sim.now, region=region,
            previous=previous, status=status))
        obs_of(self.sim).events.emit("geo.region.status", region=region,
                                     status=status.value,
                                     previous=previous.value)

    def nearest(self, origin: Optional[str] = None) -> List[str]:
        """All regions ordered by closeness to ``origin``.

        ``origin`` first, then the rest of the ring in preference
        order; an unknown/None origin falls back to preference order.
        """
        if origin is None or origin not in self._status:
            return list(self._order)
        pivot = self._order.index(origin)
        return self._order[pivot:] + self._order[:pivot]

    def nearest_available(self) -> Optional[str]:
        """The first not-DOWN region in preference order (or ``None``)."""
        for region in self.nearest():
            if self._status[region] is not RegionStatus.DOWN:
                return region
        return None
