"""Scheduling policies — where should the next instance go?

Section VI gives the canonical example of why the policy must be a
swappable object behind the multicloud facade: "changing the scheduling
policy from 'all computations on private cloud until saturation' to
something more selective such as 'streamlined models to AWS and
experimental ones to the private cloud'" should require no caller
changes.  Policies return an ordered list of locations to try; the
Load Balancer feeds that to :class:`~repro.cloud.multicloud.MultiCloud`.
The locations are a cell's labels, which are always ``private`` and
``public`` (see :mod:`repro.core.cell`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

from repro.cloud.images import ImageKind, MachineImage


@dataclass(frozen=True)
class PlacementContext:
    """What the policy may condition on for one launch decision."""

    image: MachineImage
    purpose: str = "general"     # free-text workload label


class SchedulingPolicy(abc.ABC):
    """Maps a placement context to an ordered location preference."""

    name: str = "abstract"

    @abc.abstractmethod
    def locations(self, context: PlacementContext) -> List[str]:
        """Locations to try, most preferred first."""


class PrivateFirstPolicy(SchedulingPolicy):
    """All computations on the private cloud until saturation.

    The paper's default: private capacity is sunk cost, so fill it first
    and burst to the public cloud only when it is full.  The burst is
    implicit — the multicloud facade falls through to the next location
    when the private provider raises a capacity error.
    """

    name = "private-until-saturation"

    def locations(self, context: PlacementContext) -> List[str]:
        return ["private", "public"]


class WorkloadSplitPolicy(SchedulingPolicy):
    """Streamlined models to the public cloud, experimental to private.

    The paper's 'more selective' example: production-grade bundles get
    the elastic provider, incubator workloads stay on owned hardware
    where experimentation is free.
    """

    name = "streamlined-public-experimental-private"

    def locations(self, context: PlacementContext) -> List[str]:
        if context.image.kind == ImageKind.STREAMLINED:
            return ["public", "private"]
        return ["private", "public"]


class PrivateOnlyPolicy(SchedulingPolicy):
    """Baseline: never burst; a full private cloud means waiting."""

    name = "private-only"

    def locations(self, context: PlacementContext) -> List[str]:
        return ["private"]


class PublicOnlyPolicy(SchedulingPolicy):
    """Baseline: everything on the public cloud (max QoS, max cost)."""

    name = "public-only"

    def locations(self, context: PlacementContext) -> List[str]:
        return ["public"]
