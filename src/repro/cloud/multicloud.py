"""Cross-cloud abstraction — the jclouds role.

Broker and portal code never names OpenStack or AWS: it asks the
:class:`MultiCloud` facade for a node matching a provider-neutral
:class:`NodeTemplate`.  Locations ("private", "public") are labels the
scheduling policies reason about; swapping a policy or adding a provider
requires no caller changes — the interoperability property Section VI
credits to jclouds, and which ``benchmarks/bench_policy_swap.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.errors import CloudError, InstanceNotFound
from repro.cloud.flavors import Flavor
from repro.cloud.images import MachineImage
from repro.cloud.instance import Instance
from repro.cloud.provider import CloudProvider
from repro.cloud.storage import BlobStore


@dataclass(frozen=True)
class NodeTemplate:
    """Provider-neutral launch request.

    ``location`` restricts the launch to one registered location;
    ``None`` lets the facade try locations in registration order —
    registration order is therefore the default placement preference
    (EVOp registers "private" first to minimise cost).
    """

    image: MachineImage
    flavor: Flavor
    location: Optional[str] = None
    project: str = "evop"


#: The implicit region every pre-geo deployment lives in.
DEFAULT_REGION = "local"


class MultiCloud:
    """Uniform compute + blobstore API across registered providers.

    Locations optionally carry a *region*: a failure domain grouping
    several locations (one region usually registers a "private" and a
    "public" location).  Single-region deployments never mention
    regions and behave exactly as before; geo deployments register
    region-qualified locations and hand each regional control plane a
    :meth:`scoped` view that speaks plain local labels.
    """

    def __init__(self) -> None:
        self._computes: Dict[str, CloudProvider] = {}
        self._blobstores: Dict[str, BlobStore] = {}
        self._order: List[str] = []
        self._region_of: Dict[str, str] = {}
        self._breakers = None

    # -- registration ------------------------------------------------------------

    def attach_resilience(self, breakers) -> None:
        """Consult a shared BreakerRegistry when provisioning.

        With a registry attached, ``create_node`` skips locations whose
        ``launch@<location>`` breaker is open and feeds every admission
        outcome back into it — so a provider whose control plane keeps
        refusing is rested instead of hammered, deployment-wide.
        """
        self._breakers = breakers

    def register_compute(self, location: str, provider: CloudProvider,
                         region: str = DEFAULT_REGION) -> None:
        """Attach a compute provider under a location label."""
        if location in self._computes:
            raise ValueError(f"location {location!r} already registered")
        self._computes[location] = provider
        self._order.append(location)
        self._region_of[location] = region

    def register_blobstore(self, location: str, store: BlobStore,
                           region: str = DEFAULT_REGION) -> None:
        """Attach a blob store under a location label."""
        if location in self._blobstores:
            raise ValueError(f"location {location!r} already registered")
        self._blobstores[location] = store
        self._region_of.setdefault(location, region)

    def locations(self) -> List[str]:
        """Registered compute locations in preference order."""
        return list(self._order)

    def regions(self) -> List[str]:
        """Distinct regions in registration order."""
        seen: List[str] = []
        for location in self._order:
            region = self._region_of[location]
            if region not in seen:
                seen.append(region)
        return seen

    def scoped(self, region: str) -> "RegionScopedCloud":
        """A view of this estate restricted to one region.

        The view exposes the same node-management API but speaks the
        region's *local* labels (the part after ``<region>/``), so the
        scheduling policies — which reason about "private"/"public" —
        work unchanged inside any region.
        """
        locations = [loc for loc in self._order
                     if self._region_of[loc] == region]
        if not locations:
            raise CloudError(f"no locations registered in region {region!r}")
        return RegionScopedCloud(self, region, locations)

    def compute(self, location: str) -> CloudProvider:
        """The provider registered at ``location``."""
        try:
            return self._computes[location]
        except KeyError:
            raise CloudError(f"no compute at location {location!r}") from None

    def blobstore(self, location: str) -> BlobStore:
        """The blob store registered at ``location``."""
        try:
            return self._blobstores[location]
        except KeyError:
            raise CloudError(f"no blobstore at location {location!r}") from None

    # -- node management -----------------------------------------------------------

    def create_node(self, template: NodeTemplate) -> Instance:
        """Launch a node somewhere satisfying the template.

        With ``template.location`` set, only that location is tried.
        Otherwise locations are tried in registration order and the
        first admission success wins; if every provider refuses, the
        last error propagates.
        """
        locations = ([template.location] if template.location is not None
                     else self._order)
        if not locations:
            raise CloudError("no compute providers registered")
        last_error: Optional[CloudError] = None
        for location in locations:
            breaker = (self._breakers.get(f"launch@{location}")
                       if self._breakers is not None else None)
            if breaker is not None and not breaker.allow():
                last_error = CloudError(
                    f"circuit open for launches at {location!r}")
                continue
            provider = self.compute(location)
            try:
                instance = provider.launch(template.image, template.flavor,
                                           project=template.project)
            except CloudError as err:
                if breaker is not None:
                    breaker.record_failure()
                last_error = err
            else:
                if breaker is not None:
                    breaker.record_success()
                return instance
        assert last_error is not None
        raise last_error

    def destroy_node(self, instance: Instance) -> None:
        """Terminate a node wherever it lives."""
        self._provider_of(instance).terminate(instance.instance_id)

    def location_of(self, instance: Instance,
                    default: Optional[str] = None) -> str:
        """The location label of the provider hosting ``instance``.

        With ``default`` given it is returned instead of raising when
        no registered provider claims the instance — the public lookup
        the Load Balancer and admin console use (previously each had a
        private try/except wrapper).
        """
        for location, provider in self._computes.items():
            if provider.name == instance.provider_name:
                return location
        if default is not None:
            return default
        raise InstanceNotFound(instance.instance_id)

    def list_nodes(self, location: Optional[str] = None) -> List[Instance]:
        """Live (not-gone) nodes, optionally restricted to a location."""
        locations = [location] if location is not None else self._order
        nodes: List[Instance] = []
        for loc in locations:
            provider = self.compute(loc)
            nodes.extend(inst for inst in provider.instances()
                         if not inst.is_gone)
        return nodes

    def _provider_of(self, instance: Instance) -> CloudProvider:
        for provider in self._computes.values():
            if provider.name == instance.provider_name:
                return provider
        raise InstanceNotFound(instance.instance_id)


class RegionScopedCloud:
    """One region's slice of a :class:`MultiCloud`.

    Looks like a MultiCloud to the Load Balancer and router but only
    sees the region's locations, addressed by their local label: a
    global location ``"eu-west/private"`` is ``"private"`` through the
    ``eu-west`` view.  Launches, lookups and teardown all translate at
    the boundary, so per-region control planes stay region-blind.
    """

    def __init__(self, parent: MultiCloud, region: str,
                 locations: List[str]):
        self.parent = parent
        self.region = region
        self._globals = list(locations)           # global labels, in order
        prefix = f"{region}/"
        self._local_of = {glob: (glob[len(prefix):]
                                 if glob.startswith(prefix) else glob)
                          for glob in locations}
        self._global_of = {local: glob
                           for glob, local in self._local_of.items()}

    def qualify(self, local: str) -> str:
        """The global label of a local location."""
        try:
            return self._global_of[local]
        except KeyError:
            raise CloudError(f"no location {local!r} in region "
                             f"{self.region!r}") from None

    def locations(self) -> List[str]:
        """The region's locations (local labels) in preference order."""
        return [self._local_of[glob] for glob in self._globals]

    def compute(self, location: str) -> CloudProvider:
        """The provider at a local location."""
        return self.parent.compute(self.qualify(location))

    def blobstore(self, location: str) -> BlobStore:
        """The blob store at a local location."""
        return self.parent.blobstore(self.qualify(location))

    def create_node(self, template: NodeTemplate) -> Instance:
        """Launch inside this region (template uses local labels)."""
        if template.location is not None:
            template = NodeTemplate(template.image, template.flavor,
                                    location=self.qualify(template.location),
                                    project=template.project)
            return self.parent.create_node(template)
        last_error: Optional[CloudError] = None
        for local in self.locations():
            scoped = NodeTemplate(template.image, template.flavor,
                                  location=self.qualify(local),
                                  project=template.project)
            try:
                return self.parent.create_node(scoped)
            except CloudError as err:
                last_error = err
        assert last_error is not None
        raise last_error

    def destroy_node(self, instance: Instance) -> None:
        """Terminate a node (must live in this region)."""
        self.parent.destroy_node(instance)

    def location_of(self, instance: Instance,
                    default: Optional[str] = None) -> str:
        """The *local* label of the provider hosting ``instance``."""
        for glob in self._globals:
            if self.parent.compute(glob).name == instance.provider_name:
                return self._local_of[glob]
        if default is not None:
            return default
        raise InstanceNotFound(instance.instance_id)

    def list_nodes(self, location: Optional[str] = None) -> List[Instance]:
        """Live nodes in this region, optionally at one local location."""
        globals_ = ([self.qualify(location)] if location is not None
                    else self._globals)
        nodes: List[Instance] = []
        for glob in globals_:
            nodes.extend(self.parent.list_nodes(glob))
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RegionScopedCloud {self.region} {self.locations()}>"
