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

A sweep costs the writes made since the last one: it reads each site's
change feed (``Container.written_since``) and converges only those keys
and any it left unconverged, as a converged key ships nothing.  Only a
site joining the live set (first sweep, heal, fault cleared) makes it
converge every known key.  Deletes are not replicated: a key ships from
a live site that holds its elected version and still stores the blob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.cloud.errors import BlobNotFound, StorageUnavailable
from repro.cloud.storage import Blob, BlobStore
from repro.geo.topology import RegionStatus, RegionTopology
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
    vector.  Sites whose region is DOWN (or whose store is faulted) are
    skipped; the first sweep after they heal converges every known key,
    any other only the keys written or left pending since the last.
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
        #: (region, container) → the write number its feed was read to
        self._marks: Dict[Tuple[str, str], int] = {}
        #: (container, key) written, or not converged, since last sweep
        self._pending: Set[Tuple[str, str]] = set()
        #: the sites live at the last sweep
        self._live: Set[str] = set()
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

    # -- the sweep -----------------------------------------------------------

    def sweep(self) -> int:
        """One replication round; returns blobs shipped."""
        self.sweeps += 1
        live = self._live_sites()
        rejoined = not self._live.issuperset(live)
        self._live = set(live)
        for region in live:
            self._absorb_local_writes(region)
        shipped, pending, self._pending = 0, self._pending, set()
        for cname in self._containers:
            keys = {key for c, key in pending if c == cname}
            if rejoined:  # a returning site may lack any key: look at all
                keys = {key for (region, c, key) in self._versions
                        if c == cname and region in self._live}
            for key in sorted(keys):
                shipped += self._converge_key(cname, key, live)
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
        """Mark pending every key written at ``region`` since its last
        sweep, bumping the version vector of each whose etag changed."""
        store = self._sites[region]
        for cname in self._containers:
            try:
                container = store.create_container(cname)
                written = container.written_since(
                    self._marks.get((region, cname), 0))
                self._marks[(region, cname)] = container.writes
                for key in written:
                    self._pending.add((cname, key))
                    etag = container.get(key).etag
                    site_key = (region, cname, key)
                    if self._seen.get(site_key) == etag:
                        continue
                    base = self._versions.get(site_key, VersionVector())
                    self._versions[site_key] = base.increment(region)
                    self._seen[site_key] = etag
            except StorageUnavailable:
                return

    def _converge_key(self, cname: str, key: str, live: List[str]) -> int:
        """Ship the elected version of ``key`` to every live site; a key
        left unconverged is pending again."""
        held = {region: self._versions[(region, cname, key)]
                for region in live
                if (region, cname, key) in self._versions}
        blobs: Dict[str, Blob] = {}
        for region in held:
            try:
                blobs[region] = \
                    self._sites[region].create_container(cname).get(key)
            except (StorageUnavailable, BlobNotFound):
                continue  # a delete is kept: that site cannot ship
        if not blobs:
            return 0  # no live site stores the key
        source, target = self._elect_version(cname, key, held, blobs)
        if source is None:
            self._pending.add((cname, key))  # an older copy may ship later
            return 0
        shipped = 0
        for region in live:
            if region == source or held.get(region) == target:
                continue
            if self._apply(source, region, cname, key, blobs[source], target):
                shipped += 1
            else:
                self._pending.add((cname, key))
        # the source's own history may widen after a conflict merge
        if held.get(source) != target:
            self._versions[(source, cname, key)] = target
        return shipped

    def _elect_version(self, cname: str, key: str,
                       held: Dict[str, VersionVector],
                       blobs: Dict[str, Blob]):
        """Pick the version every site should converge to, and its source.

        Returns ``(source_region, target_vector)``; a dominant history
        wins outright, shipped by the first site holding it that still
        stores the blob (``None`` if none does), otherwise the conflict
        is resolved and the target becomes the merge of every history.
        """
        for vector in held.values():
            if all(vector.descends(other) for other in held.values()):
                return next((region for region in blobs
                             if held[region] == vector), None), vector
        winner = self._resolve_conflict(cname, key, blobs)
        merged = VersionVector()
        for vector in held.values():
            merged = merged.merge(vector)
        return winner, merged

    def _resolve_conflict(self, cname: str, key: str,
                          blobs: Dict[str, Blob]) -> str:
        self.conflicts += 1
        # deterministic tiebreak: newest write wins, region name breaks
        # simultaneous writes
        return max(blobs, key=lambda r: (blobs[r].created_at, r))

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
        # a sweep is one step: no local write came since the site's mark
        self._marks[(region, cname)] = applied.write
        lag = max(0.0, self.sim.now - blob.created_at)
        self.shipped.append(ShippedRecord(
            time=self.sim.now, container=cname, key=key,
            source=source, target=region, lag=lag))
        return True
