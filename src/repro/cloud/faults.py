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

* **partition** — two addresses can no longer reach each other (requests
  between them time out); heals with :meth:`heal_partition`.
* **storage_fault** — a blob store goes unavailable or arms a one-shot
  torn write (see :class:`~repro.cloud.storage.BlobStore`).
* **outage** — a blob store, addressed by its name, is unavailable for
  a fixed simulated duration, then heals itself.
* **heal** — undo a degrade/blackhole on an instance.

The geo-distributed estate adds a region-scoped compound fault:

* **region_outage** — everything in one registered region fails at
  once: its instances crash, its blob stores go unavailable, its
  providers refuse launches, and the network partitions its addresses
  from every other region's.  :meth:`heal_region` undoes the network,
  storage and control-plane parts (crashed instances stay dead — the
  Load Balancer boots replacements once launches work again).

Every injection is recorded as a structured :class:`InjectedFault` in
:attr:`FaultInjector.injected` and emitted to the event log, so traces
show exactly where chaos struck.

Faults can be injected deterministically (``crash_at``) or as a Poisson
background process (``enable_random_crashes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud.instance import Instance, InstanceState
from repro.cloud.provider import CloudProvider
from repro.cloud.storage import BlobStore
from repro.obs.hub import obs_of
from repro.sim import RandomStreams, Simulator


@dataclass(frozen=True)
class InjectedFault:
    """One recorded fault injection.

    Indexable like the old ``(time, kind, target)`` tuples so existing
    call sites keep working, but with named fields and a cause.
    """

    time: float
    kind: str
    target: str
    cause: str = ""

    def __getitem__(self, index: int):
        return (self.time, self.kind, self.target, self.cause)[index]

    def __iter__(self):
        return iter((self.time, self.kind, self.target, self.cause))


@dataclass
class _RegionBinding:
    """The components the injector treats as one failure domain."""

    region: str
    providers: List[CloudProvider]
    stores: List[BlobStore]
    #: address pairs partitioned by the active outage (for healing)
    partitions: List[Tuple[str, str]] = field(default_factory=list)
    down: bool = False


class FaultInjector:
    """Injects instance, network and storage faults.

    ``providers`` are the clouds whose instances can be crashed;
    ``network`` (optional) enables partitions; ``stores`` (optional,
    :attr:`BlobStore.name` → store, as :meth:`register_region` files
    them) enables storage faults and outages.
    """

    def __init__(self, sim: Simulator, providers: List[CloudProvider],
                 streams: Optional[RandomStreams] = None,
                 network: Optional[object] = None,
                 stores: Optional[Dict[str, BlobStore]] = None):
        self.sim = sim
        self.providers = list(providers)
        self.streams = streams or RandomStreams()
        self.network = network
        self.stores = dict(stores or {})
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

    def degrade_at(self, delay: float, instance: Instance,
                   speed_multiplier: float = 0.1) -> None:
        """Schedule a degradation ``delay`` seconds from now."""
        self.sim.schedule(delay, self.degrade, instance, speed_multiplier)

    def blackhole_at(self, delay: float, instance: Instance) -> None:
        """Schedule a NIC blackhole ``delay`` seconds from now."""
        self.sim.schedule(delay, self.blackhole, instance)

    def heal_at(self, delay: float, instance: Instance) -> None:
        """Schedule a heal ``delay`` seconds from now."""
        self.sim.schedule(delay, self.heal, instance)

    # -- network faults ------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut the network between addresses ``a`` and ``b``.

        Requests between the two sides are silently dropped (the caller
        times out), in both directions, until :meth:`heal_partition`.
        """
        if self.network is None:
            raise ValueError("FaultInjector has no network to partition")
        self.network.partition(a, b)
        self._record("partition", f"{a}|{b}")

    def heal_partition(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b``."""
        if self.network is None:
            raise ValueError("FaultInjector has no network to heal")
        self.network.heal_partition(a, b)
        self._record("heal_partition", f"{a}|{b}")

    # -- storage faults ------------------------------------------------------

    def _store_of(self, store_name: str) -> BlobStore:
        try:
            return self.stores[store_name]
        except KeyError:
            raise ValueError(f"no blob store named {store_name!r} "
                             f"registered") from None

    def storage_fault(self, store_name: str, kind: str) -> None:
        """Inject a storage fault: ``"unavailable"`` or ``"torn_write"``."""
        self._store_of(store_name).set_fault(kind)
        self._record("storage_fault", store_name, kind)

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
        """Take a whole region down: partition + storage + instances.

        With ``duration`` the region heals itself after that many
        simulated seconds; otherwise it stays down until
        :meth:`heal_region`.
        """
        binding = self._region(region)
        if binding.down:
            return
        binding.down = True
        inside = {p.name for p in binding.providers}
        # 1. the region's addresses stop reaching every other region
        if self.network is not None:
            local = [inst.address for p in binding.providers
                     for inst in p.instances() if not inst.is_gone]
            remote = [inst.address for p in self.providers
                      if p.name not in inside
                      for inst in p.instances() if not inst.is_gone]
            for a in local:
                for b in remote:
                    self.network.partition(a, b)
                    binding.partitions.append((a, b))
        # 2. its object storage goes unavailable
        for store in binding.stores:
            store.set_fault("unavailable")
        # 3. its control planes refuse launches
        for provider in binding.providers:
            provider.set_launch_fault(f"region {region} outage")
        # 4. its instances die
        for provider in binding.providers:
            for instance in list(provider.instances()):
                if not instance.is_gone:
                    self.crash(instance, cause=f"region {region} outage")
        self._record("region_outage", region,
                     "" if duration is None else f"{duration:.0f}s")
        if duration is not None:
            self.sim.schedule(duration, self.heal_region, region)

    def heal_region(self, region: str) -> None:
        """Restore a region's network, storage and control planes."""
        binding = self._region(region)
        if not binding.down:
            return
        binding.down = False
        if self.network is not None:
            for a, b in binding.partitions:
                self.network.heal_partition(a, b)
        binding.partitions.clear()
        for store in binding.stores:
            store.clear_fault()
        for provider in binding.providers:
            provider.clear_launch_fault()
        self._record("heal_region", region)

    def region_outage_at(self, delay: float, region: str,
                         duration: Optional[float] = None) -> None:
        """Schedule a region outage ``delay`` seconds from now."""
        self.sim.schedule(delay, self.region_outage, region, duration)

    # -- background fault process --------------------------------------------

    def enable_random_crashes(self, mean_interval_seconds: float,
                              horizon: float) -> None:
        """Crash a random serving instance at Poisson intervals until ``horizon``."""
        rng = self.streams.get("faults.random")

        def fault_process():
            while self.sim.now < horizon:
                yield rng.expovariate(1.0 / mean_interval_seconds)
                victims = [inst for provider in self.providers
                           for inst in provider.instances(InstanceState.RUNNING)]
                if victims:
                    self.crash(rng.choice(victims), cause="random background fault")

        self.sim.spawn(fault_process(), name="fault-injector")
