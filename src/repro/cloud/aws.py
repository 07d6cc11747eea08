"""Public AWS-like cloud: elastic capacity, per-second billing.

The public side of the hybrid pair.  Capacity is effectively unbounded
(an optional account limit mirrors EC2's default instance caps), boots
are slower and noisier than the LAN-local private cloud, and every
second is billed.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.billing import BillingMeter
from repro.cloud.errors import QuotaExceededError
from repro.cloud.flavors import Flavor
from repro.cloud.images import MachineImage
from repro.cloud.provider import CloudProvider
from repro.sim import RandomStreams, Simulator

#: Boot time before image staging and jitter, in seconds.
BASE_BOOT_SECONDS = 45.0
#: Cross-WAN image staging rate.
IMAGE_TRANSFER_MBPS = 600.0


class AwsCloud(CloudProvider):
    """Elastic public IaaS (the EC2 role).

    ``account_instance_limit`` is the only admission rule; ``None`` means
    unbounded.  Boot times include cross-WAN image staging and the
    heavier tail public clouds exhibit.
    """

    def __init__(self, sim: Simulator, name: str = "aws",
                 account_instance_limit: Optional[int] = None,
                 streams: Optional[RandomStreams] = None,
                 meter: Optional[BillingMeter] = None):
        super().__init__(sim, name, streams=streams, meter=meter)
        self.account_instance_limit = account_instance_limit

    def _check_admission(self, flavor: Flavor, project: str) -> None:
        if (self.account_instance_limit is not None
                and self.active_count() >= self.account_instance_limit):
            raise QuotaExceededError(
                f"{self.name}: account limit of "
                f"{self.account_instance_limit} instances reached")

    def boot_time(self, image: MachineImage) -> float:
        """Cross-WAN staging plus a lognormal-ish long tail."""
        transfer = image.size_gb * 8000.0 / IMAGE_TRANSFER_MBPS
        rng = self.streams.get(f"{self.name}.boot")
        jitter = rng.uniform(0.9, 1.3)
        tail = rng.expovariate(1.0 / 5.0)  # occasional slow scheduler placement
        return (BASE_BOOT_SECONDS + transfer) * jitter + tail

    def _id_prefix(self) -> str:
        return "i"
