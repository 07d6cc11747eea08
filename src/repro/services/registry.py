"""Service registry — the catalogue of everything-as-a-service.

The XaaS ethos makes every dataset, model and management function "a
system resource that is made accessible via a web service interface";
the registry is where those resources are advertised and discovered.
Records carry the interface standard (``rest``, ``wps``, ``sos``,
``soap``) so composition code can pick compatible endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class ServiceRecord:
    """One advertised service endpoint."""

    name: str
    service_type: str          # "wps" | "sos" | "rest" | "soap"
    address: str
    standard: str = ""         # e.g. "OGC WPS 1.0.0"
    metadata: Dict[str, str] = field(default_factory=dict)


class ServiceRegistry:
    """Register/lookup of service records.

    Multiple records may share a name (replicas of the same service at
    different addresses); ``deregister`` removes by exact
    ``(name, address)`` so replacing a failed replica is precise.
    """

    def __init__(self) -> None:
        self._records: List[ServiceRecord] = []

    def register(self, record: ServiceRecord) -> ServiceRecord:
        """Advertise a record; duplicate (name, address) pairs are errors."""
        if any(r.name == record.name and r.address == record.address
               for r in self._records):
            raise ValueError(
                f"{record.name!r} already registered at {record.address!r}")
        self._records.append(record)
        return record

    def deregister(self, name: str, address: str) -> bool:
        """Remove a record; returns whether anything was removed."""
        before = len(self._records)
        self._records = [r for r in self._records
                         if not (r.name == name and r.address == address)]
        return len(self._records) < before

    def lookup(self, name: str) -> List[ServiceRecord]:
        """All records advertising ``name`` (replicas)."""
        return [r for r in self._records if r.name == name]

    def by_type(self, service_type: str) -> List[ServiceRecord]:
        """All records of the given interface type."""
        return [r for r in self._records if r.service_type == service_type]

    def find(self, predicate: Callable[[ServiceRecord], bool]) -> List[ServiceRecord]:
        """Records matching an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def first_address(self, name: str) -> Optional[str]:
        """Address of the first replica of ``name``, if any."""
        records = self.lookup(name)
        return records[0].address if records else None

    def all(self) -> List[ServiceRecord]:
        """Every record, in registration order."""
        return list(self._records)
