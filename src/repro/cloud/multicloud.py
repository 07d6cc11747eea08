"""Cross-cloud abstraction — the jclouds role.

Broker and portal code never names OpenStack or AWS: it asks the
:class:`MultiCloud` facade for a node matching a provider-neutral
:class:`NodeTemplate`.  Locations ("private", "public") are labels the
scheduling policies reason about; swapping a policy or adding a provider
requires no caller changes — the interoperability property Section VI
credits to jclouds, and which ``benchmarks/bench_policy_swap.py`` checks.
One facade is one failure domain's clouds: an estate of several builds
one per :class:`~repro.core.cell.Cell` and the labels stay the same two.
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


class MultiCloud:
    """Uniform compute + blobstore API across registered providers."""

    def __init__(self) -> None:
        self._computes: Dict[str, CloudProvider] = {}
        self._blobstores: Dict[str, BlobStore] = {}
        self._order: List[str] = []
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

    def register_compute(self, location: str, provider: CloudProvider) -> None:
        """Attach a compute provider under a location label."""
        if location in self._computes:
            raise ValueError(f"location {location!r} already registered")
        self._computes[location] = provider
        self._order.append(location)

    def register_blobstore(self, location: str, store: BlobStore) -> None:
        """Attach a blob store under a location label."""
        if location in self._blobstores:
            raise ValueError(f"location {location!r} already registered")
        self._blobstores[location] = store

    def locations(self) -> List[str]:
        """Registered compute locations in preference order."""
        return list(self._order)

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

