"""Abstract IaaS provider.

Both simulated clouds share the same contract: asynchronous instance
launch (boot time depends on image size and provider characteristics),
termination, capacity accounting, and a per-provider metrics registry.
Concrete providers only define capacity rules and boot-time behaviour.
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, List, Optional

from repro.cloud.billing import BillingMeter
from repro.cloud.errors import CloudError, InstanceNotFound, InvalidStateError
from repro.cloud.flavors import Flavor
from repro.cloud.images import MachineImage
from repro.cloud.instance import Instance, InstanceState
from repro.sim import MetricsRegistry, RandomStreams, Simulator


class CloudProvider(abc.ABC):
    """Base class for simulated IaaS providers."""

    def __init__(self, sim: Simulator, name: str,
                 streams: Optional[RandomStreams] = None,
                 meter: Optional[BillingMeter] = None):
        self.sim = sim
        self.name = name
        self.streams = streams or RandomStreams()
        self.meter = meter
        self.metrics = MetricsRegistry(sim, namespace=f"cloud.{name}")
        self._instances: Dict[str, Instance] = {}
        self._ids = itertools.count()
        self._launch_fault: Optional[str] = None

    # -- contract -------------------------------------------------------------

    @abc.abstractmethod
    def _check_admission(self, flavor: Flavor, project: str) -> None:
        """Raise CapacityError/QuotaExceededError if the launch can't go."""

    @abc.abstractmethod
    def boot_time(self, image: MachineImage) -> float:
        """Seconds from launch request to RUNNING for ``image``."""

    # -- public API -------------------------------------------------------------

    def launch(self, image: MachineImage, flavor: Flavor,
               project: str = "evop") -> Instance:
        """Start an instance; returns it in PENDING state.

        Wait on ``instance.ready`` for the boot to finish.  Admission
        control runs synchronously so callers can catch capacity/quota
        errors and fall back to another provider (cloudbursting).
        """
        if self._launch_fault is not None:
            raise CloudError(f"{self.name}: {self._launch_fault}")
        self._check_admission(flavor, project)
        instance_id = f"{self._id_prefix()}-{next(self._ids):04d}"
        instance = Instance(self.sim, instance_id, self.name, image, flavor)
        self._instances[instance_id] = instance
        self.metrics.gauge("instances.running").add(0)  # ensure gauge exists

        def boot_done() -> None:
            if instance.state != InstanceState.PENDING:
                return
            instance._mark_running()
            self.metrics.gauge("instances.running").add(1)
            if self.meter is not None:
                self.meter.instance_started(instance)

        self.sim.schedule(self.boot_time(image), boot_done)
        return instance

    def set_launch_fault(self, cause: str = "control plane unavailable") -> None:
        """Refuse every launch with :class:`CloudError` until cleared.

        The fault injector uses this to take a provider's control plane
        down (a region outage keeps existing instances' fate separate
        from the ability to boot replacements).
        """
        self._launch_fault = cause

    def clear_launch_fault(self) -> None:
        """Allow launches again."""
        self._launch_fault = None

    def terminate(self, instance_id: str) -> None:
        """Terminate an instance; running jobs fail, billing stops."""
        instance = self.get(instance_id)
        if instance.is_gone:
            raise InvalidStateError(
                f"instance {instance_id} already {instance.state.value}")
        was_serving = instance.is_serving
        instance._mark_terminated()
        self._on_instance_gone(instance, was_serving)

    def _on_instance_gone(self, instance: Instance, was_serving: bool) -> None:
        """Shared accounting when an instance fails or terminates."""
        if was_serving:
            self.metrics.gauge("instances.running").add(-1)
        if self.meter is not None:
            self.meter.instance_stopped(instance)
        self._release_capacity(instance)

    def _release_capacity(self, instance: Instance) -> None:
        """Hook for capacity-tracking providers; default no-op."""

    def get(self, instance_id: str) -> Instance:
        """Look up an instance by id."""
        try:
            return self._instances[instance_id]
        except KeyError:
            raise InstanceNotFound(instance_id) from None

    def instances(self) -> List[Instance]:
        """All instances ever launched."""
        return list(self._instances.values())

    def serving_instances(self) -> List[Instance]:
        """Instances currently able to serve (RUNNING or DEGRADED)."""
        return [inst for inst in self._instances.values() if inst.is_serving]

    def active_count(self) -> int:
        """Instances not yet gone (PENDING, RUNNING or DEGRADED)."""
        return sum(1 for inst in self._instances.values() if not inst.is_gone)

    def _id_prefix(self) -> str:
        return self.name[:2]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} active={self.active_count()}>"
