"""Fault injection for the failover and durability benchmarks.

The original fault kinds cover the signatures the paper's Load Balancer
detects:

* **crash** — the instance dies outright (state ``FAILED``); in-flight
  jobs fail, requests to it are refused.
* **degrade** — the instance keeps serving but its CPU pins at 100% and
  service slows drastically ("sustained high CPU utilisation").
* **blackhole** — the NIC stops transmitting while still receiving
  ("zero outbound network usage whilst receiving inbound traffic").

The durable-execution work adds infrastructure-level faults:

* **outage** — a blob store, addressed by its name, is unavailable for
  a fixed simulated duration, then heals itself (see
  :class:`~repro.cloud.storage.BlobStore`).
* **heal** — undo a degrade/blackhole on an instance.

The geo-distributed estate adds a region-scoped compound fault:

* **region_outage** — everything in one registered region fails at
  once: its instances crash, its blob stores go unavailable and its
  providers refuse launches.  :meth:`heal_region` undoes the storage and
  control-plane parts (crashed instances stay dead — the Load Balancer
  boots replacements once launches work again).

Every injection is recorded as a structured :class:`InjectedFault` in
:attr:`FaultInjector.injected` and emitted to the event log, so traces
show exactly where chaos struck.

A fault is injected now, or later through the simulator
(``crash_at``, ``region_outage_at``, or ``sim.schedule(delay,
injector.degrade, instance)`` for any other kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.instance import Instance
from repro.cloud.provider import CloudProvider
from repro.cloud.storage import BlobStore
from repro.obs.hub import obs_of
from repro.sim import Simulator


@dataclass(frozen=True)
class InjectedFault:
    """One recorded fault injection: when, what kind, on what, and why."""

    time: float
    kind: str
    target: str
    cause: str = ""


@dataclass
class _RegionBinding:
    """The components the injector treats as one failure domain."""

    region: str
    providers: List[CloudProvider]
    stores: List[BlobStore]
    down: bool = False


class FaultInjector:
    """Injects instance, network and storage faults.

    ``providers`` are the clouds whose instances can be crashed; the stores
    :meth:`register_region` files (:attr:`BlobStore.name` → store)
    take storage faults and outages.
    """

    def __init__(self, sim: Simulator, providers: List[CloudProvider]):
        self.sim = sim
        self.providers = list(providers)
        self.stores: Dict[str, BlobStore] = {}
        self.injected: List[InjectedFault] = []
        self._regions: Dict[str, _RegionBinding] = {}

    def _provider_of(self, instance: Instance) -> CloudProvider:
        for provider in self.providers:
            if provider.name == instance.provider_name:
                return provider
        raise ValueError(f"no provider {instance.provider_name!r} registered")

    def _record(self, kind: str, target: str, cause: str = "") -> None:
        fault = InjectedFault(time=self.sim.now, kind=kind, target=target,
                              cause=cause)
        self.injected.append(fault)
        obs_of(self.sim).events.emit("fault.injected", fault=kind,
                                     target=target, cause=cause)

    # -- deterministic instance faults ---------------------------------------

    def crash(self, instance: Instance, cause: str = "hardware fault") -> None:
        """Kill ``instance`` now."""
        if instance.is_gone:
            return
        was_serving = instance.is_serving
        provider = self._provider_of(instance)
        instance._mark_failed(cause)
        provider._on_instance_gone(instance, was_serving)
        provider.metrics.counter("faults.crash").increment()
        self._record("crash", instance.instance_id, cause)

    def degrade(self, instance: Instance, speed_multiplier: float = 0.1) -> None:
        """Pin ``instance`` at 100% CPU with drastically slowed service."""
        instance._degrade(speed_multiplier)
        self._provider_of(instance).metrics.counter("faults.degrade").increment()
        self._record("degrade", instance.instance_id,
                     f"speed x{speed_multiplier}")

    def blackhole(self, instance: Instance) -> None:
        """Stop ``instance`` transmitting while it still receives."""
        instance._blackhole()
        self._provider_of(instance).metrics.counter("faults.blackhole").increment()
        self._record("blackhole", instance.instance_id)

    def heal(self, instance: Instance) -> None:
        """Undo a degrade/blackhole fault (a crash is permanent)."""
        instance._heal()
        self._record("heal", instance.instance_id)

    def crash_at(self, delay: float, instance: Instance,
                 cause: str = "scheduled fault") -> None:
        """Schedule a crash ``delay`` seconds from now."""
        self.sim.schedule(delay, self.crash, instance, cause)

    # -- storage faults ------------------------------------------------------

    def _store_of(self, store_name: str) -> BlobStore:
        try:
            return self.stores[store_name]
        except KeyError:
            raise ValueError(f"no blob store named {store_name!r} "
                             f"registered") from None

    def heal_storage(self, store_name: str) -> None:
        """Clear an ``unavailable`` fault on the store of that name."""
        self._store_of(store_name).clear_fault()
        self._record("heal_storage", store_name)

    def outage(self, store_name: str, duration: float) -> None:
        """Make the named store unavailable for ``duration`` seconds."""
        store = self._store_of(store_name)
        store.set_fault("unavailable")
        self._record("outage", store_name, f"{duration:.0f}s")
        self.sim.schedule(duration, self.heal_storage, store_name)

    # -- region-scoped faults ------------------------------------------------

    def register_region(self, region: str, providers: List[CloudProvider],
                        stores: Optional[List[BlobStore]] = None) -> None:
        """Declare a failure domain for :meth:`region_outage`.

        Providers/stores are merged into the injector's flat registries
        too, so per-instance and per-store faults keep working on them.
        """
        if region in self._regions:
            raise ValueError(f"region {region!r} already registered")
        binding = _RegionBinding(region=region, providers=list(providers),
                                 stores=list(stores or []))
        self._regions[region] = binding
        for provider in binding.providers:
            if provider not in self.providers:
                self.providers.append(provider)
        for store in binding.stores:
            self.stores.setdefault(store.name, store)

    def _region(self, region: str) -> _RegionBinding:
        try:
            return self._regions[region]
        except KeyError:
            raise ValueError(f"region {region!r} not registered "
                             f"(register_region first)") from None

    def region_outage(self, region: str,
                      duration: Optional[float] = None) -> None:
        """Take a whole region down: storage, launches and instances.

        With ``duration`` the region heals itself after that many
        simulated seconds; otherwise it stays down until
        :meth:`heal_region`.
        """
        binding = self._region(region)
        if binding.down:
            return
        binding.down = True
        # 1. its object storage goes unavailable
        for store in binding.stores:
            store.set_fault("unavailable")
        # 2. its control planes refuse launches
        for provider in binding.providers:
            provider.set_launch_fault(f"region {region} outage")
        # 3. its instances die
        for provider in binding.providers:
            for instance in list(provider.instances()):
                if not instance.is_gone:
                    self.crash(instance, cause=f"region {region} outage")
        self._record("region_outage", region,
                     "" if duration is None else f"{duration:.0f}s")
        if duration is not None:
            self.sim.schedule(duration, self.heal_region, region)

    def heal_region(self, region: str) -> None:
        """Restore a region's storage and control planes."""
        binding = self._region(region)
        if not binding.down:
            return
        binding.down = False
        for store in binding.stores:
            store.clear_fault()
        for provider in binding.providers:
            provider.clear_launch_fault()
        self._record("heal_region", region)

    def region_outage_at(self, delay: float, region: str,
                         duration: Optional[float] = None) -> None:
        """Schedule a region outage ``delay`` seconds from now."""
        self.sim.schedule(delay, self.region_outage, region, duration)
