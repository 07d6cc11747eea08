"""Instance flavors (hardware shapes).

Flavors are deliberately provider-neutral: the multicloud layer matches a
requested flavor against whatever each provider offers, which is how the
same launch request lands on OpenStack or AWS unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Flavor:
    """A hardware shape an instance can be launched with.

    ``compute_speed`` is a relative per-core speed multiplier (1.0 = the
    reference core the model run-cost estimates are calibrated against).
    """

    name: str
    vcpus: int
    ram_mb: int
    disk_gb: int
    compute_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.vcpus <= 0:
            raise ValueError(f"flavor {self.name!r} needs at least one vCPU")
        if self.ram_mb <= 0 or self.disk_gb <= 0:
            raise ValueError(f"flavor {self.name!r} has non-positive memory/disk")
        if self.compute_speed <= 0:
            raise ValueError(f"flavor {self.name!r} has non-positive speed")


#: Single-core shape for lightweight data services.
SMALL = Flavor("small", vcpus=1, ram_mb=2048, disk_gb=20)

#: Default shape for model-serving instances.
MEDIUM = Flavor("medium", vcpus=2, ram_mb=4096, disk_gb=40)

#: Shape for heavy ensemble / uncertainty-analysis workers.
LARGE = Flavor("large", vcpus=4, ram_mb=8192, disk_gb=80, compute_speed=1.2)
