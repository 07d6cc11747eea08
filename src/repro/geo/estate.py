"""The geo-distributed estate builder.

One :class:`GeoEstate` is one :class:`~repro.core.cell.Cell` per region
— each with its own cloud facade speaking ``private`` / ``public``, its
providers and store named after the region — under the geo control
plane: shared :class:`~repro.geo.topology.RegionTopology`,
:class:`~repro.geo.replication.Replicator` (warehouse + run journals),
:class:`~repro.geo.election.LeaderElection` +
:class:`~repro.geo.ledger.GeoLedger` (the estate's one capacity book,
budgeted at each region's private pool; its per-region handle is the
cell's ledger, and the only place a location is region-qualified),
:class:`~repro.geo.routing.GeoRouter` (with per-region
:class:`~repro.geo.routing.RegionGuard`s on the REST apis) and the
:class:`~repro.geo.failover.FailoverCoordinator`.  Each cell carries its
region's ping api as ``cell.api``; :meth:`GeoEstate.manage` publishes it.

One region is the same build over a list of length one: it elects
itself and replicates to nobody.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.broker import PrivateFirstPolicy, SessionTable
from repro.cloud import FaultInjector, ImageKind, ImageStore
from repro.core.cell import Cell
from repro.data.warehouse import DataWarehouse
from repro.durable import JournalStore
from repro.geo.election import LeaderElection
from repro.geo.failover import FailoverCoordinator
from repro.geo.ledger import GeoLedger
from repro.geo.replication import Replicator
from repro.geo.routing import GeoRouter, RegionGuard
from repro.geo.topology import RegionTopology, qualify
from repro.services import Network, RestApi
from repro.sim import RandomStreams, Simulator

#: Default region names, preference order (the ring).
REGIONS = ("eu-west", "us-east", "ap-south")
#: The managed service every region serves.
SERVICE = "portal"


class GeoEstate:
    """1–3 regions of the full stack; from two up, any one is expendable."""

    def __init__(self, regions: Union[int, Sequence[str]] = 1,
                 private_vcpus: int = 64,
                 replication_interval: float = 5.0,
                 election_ttl: float = 10.0,
                 election_check: float = 1.0,
                 failover_interval: float = 2.0, seed: int = 42):
        if isinstance(regions, int):
            if not 1 <= regions <= len(REGIONS):
                raise ValueError(f"regions must be 1..{len(REGIONS)}")
            names = list(REGIONS[:regions])
        else:
            names = list(regions)

        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        self.topology = RegionTopology(self.sim, names)
        self.images = ImageStore()
        self.image = self.images.create(SERVICE, ImageKind.GENERIC,
                                        size_gb=1.0)

        # the geo control plane, seated region by region as cells appear
        self.election = LeaderElection(
            self.sim, self.topology, {},
            ttl=election_ttl, check_interval=election_check)
        # the estate's budget is its private pools, one per region
        self.geo_ledger = GeoLedger(
            self.sim, self.election,
            capacity={qualify(region, "private"): private_vcpus
                      for region in names})
        self.replicator = Replicator(self.sim, self.topology,
                                     interval=replication_interval)
        self.injector = FaultInjector(self.sim, [])
        self.cells: Dict[str, Cell] = {}
        for region in names:
            cell = self.cells[region] = Cell(
                self.sim, self.streams, self.network, self.sessions,
                self.geo_ledger.handle(region), region=region,
                private_name=f"openstack-{region}",
                public_name=f"aws-{region}", private_vcpus=private_vcpus,
                shards=1, health_interval=5.0, health_window=3,
                autoscale_interval=10.0, policy=PrivateFirstPolicy())
            #: the region's ping api, published by :meth:`manage`
            cell.api = RestApi(SERVICE)
            cell.api.get("/ping", lambda req, p: {"pong": True})
            self.election.add_region(
                region, JournalStore(self.sim, cell.store,
                                     name="geo-election"))
            self.replicator.add_site(region, cell.store)
            self.injector.register_region(region, cell.providers,
                                          [cell.store])
        for container in (DataWarehouse.CONTAINER, "run-journals",
                          "run-journals-payloads"):
            self.replicator.replicate(container)

        self.geo_router = GeoRouter(
            self.sim, self.topology,
            {region: cell.router for region, cell in self.cells.items()})
        self.failover = FailoverCoordinator(self.sim, self.topology,
                                            self.geo_router, self.sessions,
                                            check_interval=failover_interval)
        for region, cell in self.cells.items():
            cell.api.guard = RegionGuard(self.geo_router, region)
            self.failover.add_region(cell)
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def manage(self) -> "GeoEstate":
        """Put every region's service under router management."""
        for cell in self.cells.values():
            cell.publish(SERVICE, cell.api, self.image,
                         sessions_per_replica=4, min_replicas=1,
                         max_replicas=16)
        return self

    def start(self) -> "GeoEstate":
        """Start the geo control-plane processes."""
        if self._started:
            return self
        self._started = True
        self.election.start()
        self.replicator.start()
        self.failover.start()
        return self

    def warm(self, until: float = 300.0) -> "GeoEstate":
        """Manage, start and run until every region serves."""
        self.manage()
        self.start()
        self.sim.run(until=until)
        return self

    # -- traffic -------------------------------------------------------------

    def submit(self, user_name: str, origin: Optional[str] = None):
        """Create an interactive session and route it; returns it."""
        session = self.sessions.create(user_name)
        self.geo_router.submit_session(session, SERVICE, origin=origin)
        return session

    def regions(self) -> List[str]:
        """The estate's regions in ring order."""
        return self.topology.regions()
