"""Private OpenStack-like cloud: fixed capacity, per-project quotas.

The EVOp private cloud ran on university hardware: a bounded hypervisor
pool.  Saturating it is the event that triggers cloudbursting in the Load
Balancer, so the capacity model matters more than anything else here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cloud.billing import BillingMeter
from repro.cloud.errors import CapacityError, QuotaExceededError
from repro.cloud.flavors import Flavor
from repro.cloud.images import MachineImage
from repro.cloud.instance import Instance
from repro.cloud.provider import CloudProvider
from repro.sim import RandomStreams, Simulator

#: Boot time before image copy and jitter, in seconds.
BASE_BOOT_SECONDS = 25.0
#: LAN-speed copy rate from the local image store.
IMAGE_TRANSFER_MBPS = 800.0


class OpenStackCloud(CloudProvider):
    """Fixed-capacity private IaaS.

    ``total_vcpus`` bounds the physical pool; ``project_quota_vcpus``
    optionally caps any single project below that (the grid-style quota
    the elasticity benches contrast against).  Boot is fast: images live
    on the local Glance store, no cross-WAN transfer.
    """

    def __init__(self, sim: Simulator, total_vcpus: int = 16,
                 name: str = "openstack",
                 project_quota_vcpus: Optional[int] = None,
                 streams: Optional[RandomStreams] = None,
                 meter: Optional[BillingMeter] = None):
        super().__init__(sim, name, streams=streams, meter=meter)
        if total_vcpus <= 0:
            raise ValueError("total_vcpus must be positive")
        self.total_vcpus = total_vcpus
        self.project_quota_vcpus = project_quota_vcpus
        self._used_vcpus = 0
        self._project_vcpus: Dict[str, int] = {}
        self._instance_project: Dict[str, str] = {}

    # -- capacity accounting ----------------------------------------------------

    @property
    def free_vcpus(self) -> int:
        """vCPUs still available in the physical pool."""
        return self.total_vcpus - self._used_vcpus

    def _check_admission(self, flavor: Flavor, project: str) -> None:
        if flavor.vcpus > self.free_vcpus:
            raise CapacityError(
                f"{self.name}: need {flavor.vcpus} vCPUs, "
                f"{self.free_vcpus} free of {self.total_vcpus}")
        if self.project_quota_vcpus is not None:
            used = self._project_vcpus.get(project, 0)
            if used + flavor.vcpus > self.project_quota_vcpus:
                raise QuotaExceededError(
                    f"{self.name}: project {project!r} quota "
                    f"{self.project_quota_vcpus} vCPUs exceeded")

    def launch(self, image: MachineImage, flavor: Flavor,
               project: str = "evop") -> Instance:
        instance = super().launch(image, flavor, project)
        self._used_vcpus += flavor.vcpus
        self._project_vcpus[project] = (self._project_vcpus.get(project, 0)
                                        + flavor.vcpus)
        self._instance_project[instance.instance_id] = project
        return instance

    def _release_capacity(self, instance: Instance) -> None:
        self._used_vcpus -= instance.flavor.vcpus
        project = self._instance_project.pop(instance.instance_id, None)
        if project is not None:
            self._project_vcpus[project] -= instance.flavor.vcpus

    # -- boot behaviour -----------------------------------------------------------

    def boot_time(self, image: MachineImage) -> float:
        """Local image store: base boot plus LAN-speed image copy."""
        transfer = image.size_gb * 8000.0 / IMAGE_TRANSFER_MBPS
        jitter = self.streams.get(f"{self.name}.boot").uniform(0.9, 1.1)
        return (BASE_BOOT_SECONDS + transfer) * jitter

    def _id_prefix(self) -> str:
        return "os"
