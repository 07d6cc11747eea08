"""The EVOp deployment facade.

Builds one :class:`~repro.core.cell.Cell` — hybrid cloud, store,
warehouse, journals, monitor, recovery, scheduling plane — and owns
every subsystem above it; ``bootstrap()`` then reproduces the Figure 1
data flow: model publication into the Model Library, WPS services
managed by the Load Balancer over the hybrid cloud, sensor networks
feeding the catalogue, and the Resource Broker fronting it all for
portal sessions.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from repro.broker.policies import (
    PrivateFirstPolicy,
    PrivateOnlyPolicy,
    PublicOnlyPolicy,
    SchedulingPolicy,
    WorkloadSplitPolicy,
)
from repro.broker.resource_broker import ResourceBroker
from repro.broker.sessions import SessionTable
from repro.cloud.billing import BillingMeter, PriceTable
from repro.cloud.faults import FaultInjector
from repro.cloud.flavors import SMALL
from repro.cloud.images import ImageKind, ImageStore
from repro.core.cell import Cell
from repro.core.config import EvopConfig
from repro.data.access import AccessPolicy, GuardedWarehouse, MODEL_RUNNER
from repro.data.catalog import AssetCatalog
from repro.data.catchments import Catchment, STUDY_CATCHMENTS
from repro.data.weather import DesignStorm
from repro.hydrology.timeseries import TimeSeries
from repro.hydrology.topmodel import TopmodelParameters
from repro.modellib.library import CalibrationRecord, ModelLibrary
from repro.modellib.processes import (
    make_fuse_process,
    make_topmodel_process,
    make_water_quality_process,
)
from repro.portal.left import LeftTool
from repro.portal.widgets import WIDGET_RETRY
from repro.obs.hub import obs_of
from repro.obs.slo import SLO
from repro.obs.telemetry import TelemetryPlane
from repro.resilience import ResilientClient
from repro.resilience.client import observed_breakers
from repro.sched import CapacityLedger
from repro.services.channels import PushGateway
from repro.services.idempotency import IdempotencyIndex
from repro.services.registry import ServiceRegistry
from repro.services.transport import Network
from repro.sim import MetricsRegistry, RandomStreams, Simulator
from repro.tenancy import RateLimiter

_POLICIES: Dict[str, type] = {
    "private-first": PrivateFirstPolicy,
    "workload-split": WorkloadSplitPolicy,
    "private-only": PrivateOnlyPolicy,
    "public-only": PublicOnlyPolicy,
}


class Evop:
    """One simulated EVOp deployment."""

    def __init__(self, config: Optional[EvopConfig] = None):
        self.config = config or EvopConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)

        # what the hybrid cloud bills, per provider
        self.meter = BillingMeter(self.sim)
        self.meter.register_provider(
            "openstack", PriceTable(dict(self.config.private_prices)))
        self.meter.register_provider(
            "aws", PriceTable(dict(self.config.public_prices),
                              minimum_billed_seconds=60.0))

        # services fabric
        self.network = Network(self.sim, streams=self.streams)
        self.registry = ServiceRegistry()

        # resilience fabric: one breaker registry and one client shared
        # by every consumer, so a tripped service×location is respected
        # deployment-wide, not per-widget
        self.resilience_metrics = MetricsRegistry(self.sim,
                                                  namespace="resilience")
        self.breakers = observed_breakers(self.sim,
                                          metrics=self.resilience_metrics)
        # widget-grade patience by default: portal sessions would rather
        # wait out provisioning than surface an error page; tighter
        # per-call timeouts/deadlines still apply where callers set them
        self.resilient = ResilientClient(
            self.sim, self.network, service="wps", policy=WIDGET_RETRY,
            streams=self.streams, breakers=self.breakers,
            metrics=self.resilience_metrics)

        # model library
        self.images = ImageStore()
        self.library = ModelLibrary(self.images)

        # infrastructure manager
        self.sessions = SessionTable(self.sim)
        # the monitor's check/fault counters feed the replica-health SLO
        # — the signal that catches single-replica faults the request-
        # level availability ratio dilutes away once the LB fails over
        self.broker_metrics = MetricsRegistry(self.sim, namespace="broker")
        policy_cls = _POLICIES.get(self.config.policy)
        if policy_cls is None:
            raise ValueError(f"unknown policy {self.config.policy!r}; "
                             f"choose from {sorted(_POLICIES)}")
        self.policy: SchedulingPolicy = policy_cls()
        # the ledger and router share one registry so the telemetry
        # plane sees the whole scheduling plane as the ``sched`` service
        self.sched_metrics = MetricsRegistry(self.sim, namespace="sched")
        self.ledger = CapacityLedger(self.sim, metrics=self.sched_metrics)

        # the one region this deployment is: hybrid cloud, store,
        # warehouse, journals, monitor, recovery and the scheduling
        # plane (N shard Load Balancers behind a rendezvous router)
        self.cell = cell = Cell(
            self.sim, self.streams, self.network, self.sessions, self.ledger,
            region="evop", private_vcpus=self.config.private_vcpus,
            public_limit=self.config.public_account_limit,
            shards=self.config.shards,
            health_interval=self.config.health_interval,
            health_window=self.config.health_window,
            autoscale_interval=self.config.autoscale_interval,
            policy=self.policy, meter=self.meter, breakers=self.breakers,
            registry=self.registry, monitor_metrics=self.broker_metrics,
            sched_metrics=self.sched_metrics)
        self.private, self.public = cell.private, cell.public
        self.multicloud = cell.multicloud
        self.storage, self.warehouse = cell.store, cell.warehouse
        self.monitor = cell.monitor
        self.journals, self.recovery = cell.journals, cell.recovery
        # shard 0 is also exposed as ``self.lb`` for single-shard callers
        self.lb, self.sched = cell.lbs[0], cell.router

        self.access = AccessPolicy()
        # the view model executions read data through: delegated compute
        # may use restricted datasets without handing them to end users
        self.model_warehouse = GuardedWarehouse(
            self.warehouse, self.access, MODEL_RUNNER)
        self.catalog = AssetCatalog()

        # one registry and one limiter for the estate: the shard
        # dispatchers and every published api share these two objects,
        # so policy registered on them later (enable_tenancy) reaches
        # all of them whatever the order of calls
        self.tenants = self.sched.tenants
        self.ratelimit = RateLimiter(self.sim, self.tenants,
                                     metrics=self.sched_metrics)
        self.injector = FaultInjector(self.sim, [])
        self.injector.register_region(cell.region, cell.providers,
                                      [cell.store])

        # exactly-once at the API edge: one shared idempotency index so
        # a key admitted by any replica of any service is honoured by
        # all of them — a retried Execute lands on a different replica
        # and still replays the original response
        self.idempotency = IdempotencyIndex(
            self.sim, self.storage.create_container("idempotency"))

        self.rb: Optional[ResourceBroker] = None
        self.left_tools: Dict[str, LeftTool] = {}
        self.truths: Dict[str, Dict[str, TimeSeries]] = {}
        self.wps_services: Dict[str, Any] = {}
        self.telemetry: Optional[TelemetryPlane] = None
        self.dataplane: Optional[Any] = None
        # owned from construction so the telemetry plane can watch it
        # whether or not (and whenever) the data plane is switched on
        self.dataplane_metrics = MetricsRegistry(self.sim,
                                                 namespace="dataplane")
        self._bootstrapped = False

    # -- lifecycle ------------------------------------------------------------------

    def bootstrap(self) -> "Evop":
        """Publish models, start services, deploy sensors, open the RB."""
        if self._bootstrapped:
            return self
        self._gateway_up()
        for name in self.config.catchments:
            catchment = STUDY_CATCHMENTS[name]
            self._publish_models(catchment)
            self._manage_service(catchment)
            self._instrument_catchment(catchment)
        self._bootstrapped = True
        if self.config.telemetry_interval is not None:
            self.enable_telemetry(self.config.telemetry_interval)
        return self

    def run_for(self, seconds: float) -> float:
        """Advance the simulation by ``seconds``."""
        return self.sim.run(until=self.sim.now + seconds)

    # -- wiring helpers ----------------------------------------------------------------

    def _gateway_up(self) -> None:
        """Boot the Resource Broker's own host and its push gateway."""
        gateway_image = self.images.create("broker-host", ImageKind.GENERIC,
                                           size_gb=1.5)
        gateway_instance = self.private.launch(gateway_image, SMALL)
        self.sim.run(until=self.sim.now + 120.0)
        gateway = PushGateway(self.sim, gateway_instance,
                              streams=self.streams)
        self.rb = ResourceBroker(self.sim, self.sched, self.sessions,
                                 gateway)

    def _publish_models(self, catchment: Catchment) -> None:
        def topmodel_factory(c: Catchment):
            return make_topmodel_process(c, warehouse=self.model_warehouse)

        def fuse_factory(c: Catchment):
            return make_fuse_process(c, warehouse=self.model_warehouse)

        self.library.publish_streamlined(
            f"topmodel-{catchment.name}", catchment, topmodel_factory,
            calibration=CalibrationRecord(
                catchment=catchment.name, objective="NSE", score=0.82,
                parameters={"m": 15.0, "td": 0.5}, iterations=500),
            dataset_ids=(f"{catchment.name}/rainfall",
                         f"{catchment.name}/discharge"),
        )
        self.library.publish_streamlined(
            f"fuse-{catchment.name}", catchment, fuse_factory,
            calibration=CalibrationRecord(
                catchment=catchment.name, objective="NSE", score=0.78,
                parameters={"k_base": 0.02}, iterations=500),
            dataset_ids=(f"{catchment.name}/rainfall",),
            bundle_size_gb=7.0,
        )
        # the stakeholders' next storyboard ships on the incubator path -
        # exactly what the paper calls "a useful testing ground"
        def quality_factory(c: Catchment):
            return make_water_quality_process(
                c, warehouse=self.model_warehouse)

        self.library.publish_experimental(
            f"water-quality-{catchment.name}", catchment, quality_factory,
            install_minutes=6.0)

    def service_name(self, catchment_name: str) -> str:
        """The managed-service name of one catchment's LEFT models."""
        return f"left-{catchment_name}"

    def _manage_service(self, catchment: Catchment) -> None:
        status = self.storage.create_container(f"wps-status-{catchment.name}")
        wps = self.library.build_service(
            self.sim, self.service_name(catchment.name),
            [f"topmodel-{catchment.name}", f"fuse-{catchment.name}",
             f"water-quality-{catchment.name}"],
            status, {catchment.name: catchment})
        wps.api.idempotency = self.idempotency
        self._behind_boundary(wps.api)
        self.wps_services[catchment.name] = wps
        self.cell.publish(
            self.service_name(catchment.name), wps.api,
            self.library.image_for(f"topmodel-{catchment.name}"),
            purpose="modelling",
            sessions_per_replica=self.config.sessions_per_replica,
            min_replicas=self.config.min_replicas,
            max_replicas=self.config.max_replicas)

    def _instrument_catchment(self, catchment: Catchment) -> None:
        """Generate truth series, deploy sensors, fill the catalogue."""
        hours = self.config.truth_days * 24
        generator = catchment.weather_generator(
            self.streams.fork(catchment.name))
        storm = DesignStorm(
            start_hour=self.config.storm_day * 24,
            duration_hours=8,
            total_depth_mm=self.config.storm_depth_mm)
        rain = generator.rainfall_with_storm(hours, storm,
                                             start_day_of_year=330)
        temperature = generator.temperature(hours, start_day_of_year=330)
        flow = catchment.topmodel().run(
            rain, parameters=TopmodelParameters(q0_mm_h=0.3)).flow
        # stage-discharge: a simple rating curve for the level sensor
        level = flow.map(lambda q: 0.3 + 0.45 * math.sqrt(max(0.0, q)))
        turbidity = flow.map(lambda q: 4.0 + 18.0 * q)
        self.truths[catchment.name] = {
            "rainfall": rain, "temperature": temperature,
            "flow": flow, "level": level, "turbidity": turbidity,
        }
        self.warehouse.put_series(f"{catchment.name}/rainfall", rain,
                                  provenance="synthetic truth")
        self.warehouse.put_series(f"{catchment.name}/discharge", flow,
                                  provenance="synthetic truth")

        def lookup(series: TimeSeries):
            last = series.end - series.dt

            def truth(t: float) -> float:
                return series.at(min(max(t, series.start), last))

            return truth

        assert self.rb is not None
        tool = LeftTool(self.sim, catchment, self.catalog, self.network,
                        self.rb, self.service_name(catchment.name),
                        streams=self.streams, resilient=self.resilient)
        tool.deploy_sensors(
            river_level_truth=lookup(level),
            rainfall_truth=lookup(rain),
            temperature_truth=lookup(temperature),
            turbidity_truth=lookup(turbidity),
        )
        tool.build_catalog()
        self.left_tools[catchment.name] = tool

    def expose_sos(self, catchment_name: Optional[str] = None) -> str:
        """Publish a catchment's sensor network as an OGC SOS service.

        Returns the managed-service name.  Deployed on demand (not at
        bootstrap) so minimal deployments stay minimal; the service is
        LB-managed like any other and serves GetCapabilities /
        DescribeSensor / GetObservation for every in-situ instrument.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        name = catchment_name or self.config.catchments[0]
        service_name = f"sos-{name}"
        from repro.services.sos import SosService

        return self._publish(
            service_name,
            lambda: SosService(self.sim, service_name,
                               self.left_tools[name].sensors).api,
            image_name=f"sos-host-{name}", size_gb=1.2,
            purpose="sensor-data", sessions_per_replica=32)

    def _behind_boundary(self, api: Any) -> Any:
        """Put ``api`` behind the estate's tenancy boundary."""
        api.tenants = self.tenants
        api.limiter = self.ratelimit
        return api

    def _publish(self, service_name: str, build_api: Callable[[], Any],
                 image_name: str, size_gb: float, purpose: str,
                 sessions_per_replica: int) -> str:
        """Put one on-demand REST api under scheduler management.

        Idempotent by service name: an api already managed is neither
        rebuilt nor re-imaged.  Returns the managed-service name.
        """
        if any(s.name == service_name for s in self.sched.services()):
            return service_name
        self.cell.publish(
            service_name, self._behind_boundary(build_api()),
            self.images.create(image_name, ImageKind.GENERIC,
                               size_gb=size_gb),
            flavor=SMALL, purpose=purpose,
            sessions_per_replica=sessions_per_replica)
        return service_name

    # -- the CQRS data plane ------------------------------------------------------------

    def enable_dataplane(self):
        """Start the event-sourced data plane and wire every producer.

        Sensor ingests, warehouse writes and WPS run lifecycle events
        flow through transactional outboxes into append-only streams;
        competing consumers fold them into the materialized read models
        served by :meth:`expose_read_api`.  Idempotent: returns the
        existing plane on repeat calls.
        """
        if self.dataplane is not None:
            return self.dataplane
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        from repro.dataplane import DataPlane

        plane = DataPlane(self.sim, self.storage)
        self.warehouse.attach_outbox(plane.outbox)
        for tool in self.left_tools.values():
            tool.sensors.attach_outbox(plane.outbox)
        for wps in self.wps_services.values():
            wps.attach_outbox(plane.outbox)
        plane.start()
        plane.instrument(self.dataplane_metrics)
        self.dataplane = plane
        return plane

    def expose_read_api(self) -> str:
        """Publish the materialized views as the managed ``read`` service.

        Deployed on demand like :meth:`expose_sos`; requires
        :meth:`enable_dataplane` (called implicitly here if needed).
        Returns the managed-service name.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        if self.dataplane is None:
            self.enable_dataplane()
        from repro.services.readapi import build_read_api

        return self._publish(
            "read", lambda: build_read_api(self.sim, self.dataplane),
            image_name="read-host", size_gb=1.0, purpose="read-model",
            sessions_per_replica=64)

    # -- tenancy ------------------------------------------------------------------------

    def enable_tenancy(self, specs: Optional[List[Any]] = None):
        """Register tenant policy on the estate's registry and limiter.

        The registry (``self.tenants``) and limiter (``self.ratelimit``)
        exist from construction and already sit under the shard
        dispatchers and in front of every published ``/v1`` API — WPS,
        read, SOS, observability — so this only states policy:

        each spec's weight (DRR lanes), rate/burst (token bucket:
        exhausted buckets answer 429 with ``Retry-After``) and
        ``vcpu_quota`` (enforced by the capacity ledger).  A tenant whose
        spec sets no rate is unlimited, and a request naming
        nobody is the ``default`` tenant's unless
        ``tenants.require_tenant`` makes the header mandatory (401).

        Returns the registry.
        """
        for spec in specs or ():
            self.tenants.register(spec)
            if spec.vcpu_quota is not None:
                self.ledger.set_tenant_quota(spec.tenant_id,
                                             spec.vcpu_quota)
        return self.tenants

    # -- observability ------------------------------------------------------------------

    def enable_telemetry(self, interval: float = 5.0) -> TelemetryPlane:
        """Start the telemetry plane: scraper, default SLOs, alert fan-out.

        Watches every subsystem registry under service/location/shard
        labels and declares the default SLOs the fleet is operated
        against:

        * availability — ≥ 99.9 % of resilient-client *attempts* succeed
          (attempt failures are the early signal: retries and failover
          keep final-status error counters flat while the fleet is
          actually impaired);
        * latency — ≥ 95 % of resilient requests complete within 5 s,
          read exactly from the scraped histogram bucket series;
        * freshness — the scraper's own sample stream never gaps.

        Alert transitions emit ``obs.alert.*`` events and broadcast over
        the RB's push gateway when one is up — operators get paged on
        the same channel fabric that pushes sensor readings to widgets.
        """
        if self.telemetry is not None:
            return self.telemetry

        def notify(payload: Dict[str, object]) -> None:
            if self.rb is not None:
                self.rb.gateway.broadcast({"channel": "ops.alerts",
                                           **payload})

        hub = obs_of(self.sim)
        plane = TelemetryPlane(self.sim, interval=interval, notifier=notify)
        plane.watch_registry(self.resilience_metrics, service="resilience")
        plane.watch_registry(self.sched_metrics, service="sched")
        plane.watch_registry(hub.api_metrics, service="rest")
        for shard, lb in enumerate(self.sched.lbs):
            plane.watch_registry(lb.metrics, service="lb", shard=str(shard))
        for location in self.multicloud.locations():
            plane.watch_registry(self.multicloud.compute(location).metrics,
                                 service="cloud", location=location)
        if self.rb is not None:
            plane.watch_registry(self.rb.gateway.metrics, service="channels")
        plane.watch_registry(self.broker_metrics, service="broker")
        plane.watch_registry(hub.metrics, service="obs")
        plane.watch_registry(self.dataplane_metrics, service="dataplane")

        plane.add_slo(SLO.availability(
            "wps-attempt-availability", total="attempts",
            errors="attempt.failures", target=0.999, service="resilience"))
        # one blackholed replica in a pool of many barely moves request
        # availability once the LB routes around it — but it shows in
        # the health-check fault ratio the moment the monitor sees it.
        # The default burn windows suit sustained request ratios; this
        # ratio is zero in steady state and the LB replaces a faulted
        # replica within a couple of verdicts, so the rule gets one
        # high-sensitivity pair: any fault verdict in the last minute,
        # still visible over five, pages.
        plane.add_slo(SLO.availability(
            "replica-health", total="health.checks",
            errors="health.faults", target=0.999, service="broker"),
            windows=((300.0, 60.0, 2.0),))
        plane.add_slo(SLO.latency(
            "wps-request-latency", metric="request.duration",
            threshold=5.0, target=0.95, service="resilience"))
        plane.add_slo(SLO.freshness(
            "telemetry-freshness", series="scrape.samples",
            max_age=3.0 * interval, target=0.99, service="telemetry"))

        self.telemetry = plane.start()
        return plane

    def expose_observability(self) -> str:
        """Publish the telemetry plane as a managed REST service.

        Deployed on demand like :meth:`expose_sos`; requires
        :meth:`enable_telemetry` (called implicitly here if needed).
        Returns the managed-service name.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        if self.telemetry is None:
            self.enable_telemetry()
        from repro.services.obsapi import build_observability_api

        return self._publish(
            "observability",
            lambda: build_observability_api(self.sim, self.telemetry,
                                            obs_of(self.sim).tracer),
            image_name="observability-host", size_gb=1.0,
            purpose="operations", sessions_per_replica=16)

    # -- conveniences -------------------------------------------------------------------

    def left(self, catchment_name: Optional[str] = None) -> LeftTool:
        """The LEFT tool of one catchment (default: the first configured)."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        name = catchment_name or self.config.catchments[0]
        return self.left_tools[name]

    def cost_report(self) -> Dict[str, float]:
        """Accrued cost per provider plus the total."""
        report = self.meter.cost_by_provider()
        report["total"] = sum(report.values())
        return report

    def instances_by_location(self) -> Dict[str, int]:
        """Live instance counts per location."""
        return {location: len(self.multicloud.list_nodes(location))
                for location in self.multicloud.locations()}
