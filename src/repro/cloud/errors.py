"""Exception hierarchy for the simulated cloud substrate."""

from __future__ import annotations


class CloudError(Exception):
    """Base class for all cloud-substrate errors."""


class CapacityError(CloudError):
    """The provider has no free physical capacity for the request.

    Raised by the private cloud when its fixed hypervisor pool is full —
    the condition that triggers cloudbursting in the load balancer.
    """


class QuotaExceededError(CloudError):
    """A per-project quota (not physical capacity) blocks the request.

    Distinct from :class:`CapacityError` because the paper contrasts IaaS
    elasticity with grid/cluster *usage quotas*; benches rely on telling
    the two apart.
    """


class InstanceNotFound(CloudError):
    """No instance with the requested id exists at this provider."""


class ImageNotFound(CloudError):
    """No machine image with the requested id exists in the image store."""


class InvalidStateError(CloudError):
    """The operation is not legal in the instance's current state."""


class BlobNotFound(CloudError):
    """The requested object does not exist in the blob store."""


class StorageUnavailable(CloudError):
    """The blob store is refusing requests (injected outage).

    Raised by every container operation while an injected ``outage``
    is active; durable-execution callers treat it
    like a crash point — nothing written during the fault is trusted.
    """


class ContainerNotFound(CloudError):
    """The requested container does not exist in the blob store."""
