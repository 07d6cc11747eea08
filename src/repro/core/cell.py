"""One region's stack: the unit every estate is made of.

A :class:`Cell` is what the paper's hybrid deployment is in one place —
a private pool, a public burst target and an object store behind one
:class:`~repro.cloud.multicloud.MultiCloud`, the warehouse and run
journals in that store, a health monitor whose verdicts feed both
replica replacement and run recovery, and the sharded scheduling plane
on top.  It fails and is operated as one unit.

:class:`~repro.core.evop.Evop` is one cell under the portal, tenancy and
data planes; :class:`~repro.geo.estate.GeoEstate` is one cell per region
under the geo control plane.  Inside a cell the locations are always
``private`` and ``public``: which region a cell is belongs to whoever
holds several (the :class:`~repro.geo.ledger.GeoLedger` qualifies, the
cell never does).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.broker.health import HealthMonitor
from repro.broker.load_balancer import LoadBalancer
from repro.broker.policies import SchedulingPolicy
from repro.broker.pool import ManagedService
from repro.broker.sessions import SessionTable
from repro.cloud.aws import AwsCloud
from repro.cloud.billing import BillingMeter
from repro.cloud.flavors import MEDIUM, Flavor
from repro.cloud.images import MachineImage
from repro.cloud.multicloud import MultiCloud
from repro.cloud.openstack import OpenStackCloud
from repro.cloud.storage import BlobStore
from repro.data.warehouse import DataWarehouse
from repro.durable.journal import JournalStore
from repro.durable.recovery import RecoveryManager
from repro.sched import ShardedRouter
from repro.services.registry import ServiceRegistry
from repro.services.rest import RestApi, RestServer
from repro.services.transport import Network
from repro.sim import MetricsRegistry, RandomStreams, Simulator


class Cell:
    """One region's providers, store, durable state and scheduling plane.

    ``sim streams network sessions`` and ``ledger`` are the estate's
    (a ledger is whatever answers ``admit`` / ``commit`` / ``release``
    in this cell's local labels); ``meter breakers registry
    monitor_metrics sched_metrics`` are shared registries an estate may
    own; the rest are the sizes estates differ in.  Complete when the
    constructor returns.
    """

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 network: Network, sessions: SessionTable, ledger: Any, *,
                 region: str, private_vcpus: int, shards: int,
                 health_interval: float, health_window: int,
                 autoscale_interval: float, policy: SchedulingPolicy,
                 private_name: str = "openstack", public_name: str = "aws",
                 public_limit: Optional[int] = None,
                 meter: Optional[BillingMeter] = None, breakers=None,
                 registry: Optional[ServiceRegistry] = None,
                 monitor_metrics: Optional[MetricsRegistry] = None,
                 sched_metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.network = network
        self.region = region
        self.private = OpenStackCloud(sim, total_vcpus=private_vcpus,
                                      streams=streams, meter=meter,
                                      name=private_name)
        self.public = AwsCloud(sim, account_instance_limit=public_limit,
                               streams=streams, meter=meter,
                               name=public_name)
        self.providers = [self.private, self.public]
        # registration order is placement preference: private first
        self.multicloud = MultiCloud()
        for location, provider in (("private", self.private),
                                   ("public", self.public)):
            self.multicloud.register_compute(location, provider)
            provider.metrics.callback_gauge(
                "instances",
                lambda loc=location: len(self.multicloud.list_nodes(loc)))
        self.multicloud.attach_resilience(breakers)
        self.store = BlobStore(sim, name=f"{region}-store")
        self.multicloud.register_blobstore("private", self.store)
        self.warehouse = DataWarehouse(self.store)
        # durable execution: every journaled run lives in the blob
        # store, and the recovery manager listens to the same health
        # verdicts that drive LB replacement
        self.journals = JournalStore(sim, self.store)
        self.monitor = HealthMonitor(sim, interval=health_interval,
                                     window=health_window,
                                     metrics=monitor_metrics)
        self.recovery = RecoveryManager(sim, self.journals,
                                        monitor=self.monitor)
        self.lbs: List[LoadBalancer] = [
            LoadBalancer(sim, self.multicloud, network, sessions, policy,
                         monitor=self.monitor, registry=registry,
                         autoscale_interval=autoscale_interval,
                         breakers=breakers, shard_id=shard, ledger=ledger)
            for shard in range(shards)]
        self.router = ShardedRouter(sim, self.lbs, ledger=ledger,
                                    multicloud=self.multicloud,
                                    metrics=sched_metrics)

    def service(self, name: str, api: RestApi, image: MachineImage,
                flavor: Flavor = MEDIUM, **pool: Any) -> ManagedService:
        """The pool template whose replicas serve ``api`` on the network.

        ``pool`` is the rest of :class:`ManagedService` (``purpose``,
        ``sessions_per_replica``, ``min_replicas``, ``max_replicas``).
        """
        def make_server(instance):
            return RestServer(self.sim, api, instance).bind(self.network)

        return ManagedService(name=name, image=image, flavor=flavor,
                              make_server=make_server, **pool)

    def publish(self, name: str, api: RestApi, image: MachineImage,
                flavor: Flavor = MEDIUM, **pool: Any):
        """Put ``api`` under the router's management; returns its slices."""
        return self.router.manage(
            self.service(name, api, image, flavor, **pool))
