"""Asynchronous cross-region blob replication with version vectors.

Each region owns a full :class:`~repro.cloud.storage.BlobStore`; the
:class:`Replicator` sweeps the replicated containers on a fixed
interval and ships changed blobs between regions.  Causality is
tracked per key with a :class:`VersionVector`: a write that descends
everything the other regions have is shipped as-is; concurrent writes
(both regions wrote since they last converged) are a *conflict*,
resolved deterministically (last-writer-wins on ``(created_at,
region)``) so every region converges on the same blob.

The sweep interval is the estate's RPO knob: a write acknowledged more
than one interval before a region is lost has been shipped to the
survivors.  Replication lag is measured per shipped blob (origin write
time to arrival at the last surviving site) so the bench can check the
bound rather than assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.errors import StorageUnavailable
from repro.cloud.storage import Blob, BlobStore
from repro.geo.topology import RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.sim import Simulator


@dataclass(frozen=True)
class VersionVector:
    """A per-region write counter: the causal history of one key.

    Immutable and hashable; stored as sorted ``(region, count)`` pairs
    so equal histories compare equal regardless of insertion order.
    """

    counts: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def of(cls, mapping: Dict[str, int]) -> "VersionVector":
        """Build from a region→count mapping (zero counts dropped)."""
        return cls(tuple(sorted((r, c) for r, c in mapping.items() if c)))

    def to_dict(self) -> Dict[str, int]:
        """The region→count mapping (a copy)."""
        return dict(self.counts)

    def get(self, region: str) -> int:
        """The write count attributed to ``region``."""
        return dict(self.counts).get(region, 0)

    def increment(self, region: str) -> "VersionVector":
        """A new vector with one more write at ``region``."""
        counts = self.to_dict()
        counts[region] = counts.get(region, 0) + 1
        return VersionVector.of(counts)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """The pointwise maximum: the join of both histories."""
        counts = self.to_dict()
        for region, count in other.counts:
            counts[region] = max(counts.get(region, 0), count)
        return VersionVector.of(counts)

    def descends(self, other: "VersionVector") -> bool:
        """Whether this history contains everything in ``other``."""
        mine = self.to_dict()
        return all(mine.get(region, 0) >= count
                   for region, count in other.counts)

    def concurrent(self, other: "VersionVector") -> bool:
        """Whether neither history contains the other (a conflict)."""
        return not self.descends(other) and not other.descends(self)


@dataclass(frozen=True)
class ShippedRecord:
    """One replicated blob application (for lag accounting)."""

    time: float
    container: str
    key: str
    source: str
    target: str
    lag: float


class Replicator:
    """Ships versioned blobs between regional stores.

    ``add_site`` attaches one store per region; ``replicate`` names the
    containers to sweep.  Detection is etag-based: a blob whose etag
    differs from what the replicator last saw at that site is a new
    local write and bumps the site's component of the key's version
    vector.  Sites whose region is DOWN (or whose store raises
    :class:`StorageUnavailable`) are skipped and catch up on the first
    sweep after they heal.
    """

    def __init__(self, sim: Simulator, topology: RegionTopology,
                 interval: float = 5.0):
        self.sim = sim
        self.topology = topology
        self.interval = interval
        self._sites: Dict[str, BlobStore] = {}
        self._containers: List[str] = []
        #: (region, container, key) → etag last seen/applied there
        self._seen: Dict[Tuple[str, str, str], str] = {}
        #: (region, container, key) → that site's version vector
        self._versions: Dict[Tuple[str, str, str], VersionVector] = {}
        self.shipped: List[ShippedRecord] = []
        self.conflicts = 0
        self.sweeps = 0
        self._started = False

    # -- wiring --------------------------------------------------------------

    def add_site(self, region: str, store: BlobStore) -> None:
        """Attach ``region``'s blob store."""
        if region not in self.topology.regions():
            raise ValueError(f"region {region!r} not in topology")
        if region in self._sites:
            raise ValueError(f"region {region!r} already has a site")
        self._sites[region] = store

    def replicate(self, container: str) -> None:
        """Add a container (by name) to the replication set."""
        if container not in self._containers:
            self._containers.append(container)

    def start(self) -> "Replicator":
        """Begin sweeping every ``interval`` seconds."""
        if self._started:
            return self
        self._started = True

        def pump():
            while True:
                yield self.interval
                self.sweep()

        self.sim.spawn(pump(), name="geo-replicator")
        return self

    # -- lag accounting ------------------------------------------------------

    def max_lag(self) -> float:
        """The worst origin-write-to-arrival lag shipped so far."""
        return max((r.lag for r in self.shipped), default=0.0)

    # -- the sweep -----------------------------------------------------------

    def sweep(self) -> int:
        """One replication round; returns blobs shipped."""
        self.sweeps += 1
        live = self._live_sites()
        for region in live:
            self._absorb_local_writes(region)
        shipped = 0
        for container in self._containers:
            shipped += self._converge_container(container, live)
        return shipped

    def _live_sites(self) -> List[str]:
        live = []
        for region in self.topology.regions():
            store = self._sites.get(region)
            if store is None or store.faulted:
                continue
            if self.topology.status(region) is RegionStatus.DOWN:
                continue
            live.append(region)
        return live

    def _absorb_local_writes(self, region: str) -> None:
        """Bump version vectors for writes made at ``region`` directly."""
        store = self._sites[region]
        for cname in self._containers:
            try:
                container = store.create_container(cname)
                for key in container.list():
                    etag = container.get(key).etag
                    site_key = (region, cname, key)
                    if self._seen.get(site_key) == etag:
                        continue
                    base = self._versions.get(site_key, VersionVector())
                    self._versions[site_key] = base.increment(region)
                    self._seen[site_key] = etag
            except StorageUnavailable:
                return

    def _converge_container(self, cname: str, live: List[str]) -> int:
        keys = set()
        for region in live:
            keys.update(key for (r, c, key) in self._versions
                        if r == region and c == cname)
        shipped = 0
        for key in sorted(keys):
            shipped += self._converge_key(cname, key, live)
        return shipped

    def _converge_key(self, cname: str, key: str, live: List[str]) -> int:
        held = {region: self._versions[(region, cname, key)]
                for region in live
                if (region, cname, key) in self._versions}
        if not held:
            return 0
        winner, target = self._elect_version(cname, key, held)
        if winner is None:
            return 0
        try:
            blob = self._sites[winner].create_container(cname).get(key)
        except StorageUnavailable:
            return 0
        shipped = 0
        for region in live:
            if region == winner or held.get(region) == target:
                continue
            if self._apply(winner, region, cname, key, blob, target):
                shipped += 1
        # the winner's own history may widen after a conflict merge
        if held.get(winner) != target:
            self._versions[(winner, cname, key)] = target
        return shipped

    def _elect_version(self, cname: str, key: str,
                       held: Dict[str, VersionVector]):
        """Pick the version every site should converge to.

        Returns ``(source_region, target_vector)``; a dominant history
        wins outright, otherwise the conflict is resolved and the
        target becomes the merge of every history.
        """
        for region, vector in held.items():
            if all(vector.descends(other) for other in held.values()):
                return region, vector
        winner = self._resolve_conflict(cname, key, held)
        merged = VersionVector()
        for vector in held.values():
            merged = merged.merge(vector)
        return winner, merged

    def _resolve_conflict(self, cname: str, key: str,
                          held: Dict[str, VersionVector]) -> Optional[str]:
        blobs: Dict[str, Blob] = {}
        for region in held:
            try:
                blobs[region] = \
                    self._sites[region].create_container(cname).get(key)
            except StorageUnavailable:
                continue
        if not blobs:
            return None
        self.conflicts += 1
        # deterministic tiebreak: newest write wins, region name breaks
        # simultaneous writes
        winner = max(blobs, key=lambda r: (blobs[r].created_at, r))
        obs_of(self.sim).events.emit("geo.replicate.conflict",
                                     container=cname, key=key,
                                     winner=winner,
                                     contenders=sorted(blobs))
        return winner

    def _apply(self, source: str, region: str, cname: str, key: str,
               blob: Blob, target: VersionVector) -> bool:
        try:
            container = self._sites[region].create_container(cname)
            applied = container.put(key, blob.payload,
                                    metadata=dict(blob.metadata))
        except StorageUnavailable:
            return False
        site_key = (region, cname, key)
        self._seen[site_key] = applied.etag
        self._versions[site_key] = target
        lag = max(0.0, self.sim.now - blob.created_at)
        self.shipped.append(ShippedRecord(
            time=self.sim.now, container=cname, key=key,
            source=source, target=region, lag=lag))
        obs_of(self.sim).events.emit("geo.replicate.shipped",
                                     container=cname, key=key,
                                     target=region, lag=round(lag, 3))
        return True
