"""S3/Swift-like object storage.

EVOp warehoused datasets and machine images in object stores on both
clouds.  This is a faithful-but-minimal blob store: containers, keyed
blobs with metadata and etags, list with prefix, and conditional get —
enough for the data warehouse, the Model Library's image payloads and
the workflow engine's stage caching.

A ``put`` stores the payload and renders nothing: most blobs (journal
records, idempotency records, checkpoints, cursors) are never asked for
an etag or a size, so both are derived from the stored payload the first
time either is read.  The payload is handed over at ``put``: mutating it
afterwards changes the stored data, whenever the etag was taken.

Every ``put`` takes the container's next write number and moves its key
to the end of the container's write order; ``written_since(mark)`` walks
back from the newest write to ``mark``, so it costs the writes since.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.errors import BlobNotFound, ContainerNotFound, StorageUnavailable
from repro.sim import Simulator


@dataclass
class Blob:
    """A stored object: payload plus user metadata; etag and size on read."""

    key: str
    payload: Any
    created_at: float
    write: int  # the container's number for the put that stored it
    metadata: Dict[str, str] = field(default_factory=dict)

    @cached_property
    def _stamp(self) -> Tuple[int, str]:
        # serialised once: the etag hashes this text and, for a
        # structured payload, its length is the size
        text = repr(self.payload)
        size = len(self.payload) if isinstance(
            self.payload, (bytes, bytearray, str)) else len(text)
        return size, hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def size_bytes(self) -> int:
        return self._stamp[0]

    @property
    def etag(self) -> str:
        return self._stamp[1]


class Container:
    """A named bucket of blobs."""

    def __init__(self, name: str, sim: Simulator,
                 store: Optional["BlobStore"] = None):
        self.name = name
        self._sim = sim
        self._store = store
        #: key → blob, in write order
        self._blobs: Dict[str, Blob] = {}
        self.writes = 0  # the latest put's write number

    def _check_available(self) -> None:
        if self._store is not None:
            self._store._check_fault()

    def _maybe_tear(self, payload: Any) -> Any:
        """Apply a one-shot torn-write fault to string payloads."""
        if self._store is None or not self._store.consume_torn_write():
            return payload
        if isinstance(payload, str) and len(payload) > 1:
            return payload[: max(1, (2 * len(payload)) // 3)]
        return payload

    def put(self, key: str, payload: Any,
            metadata: Optional[Dict[str, str]] = None) -> Blob:
        """Store (or overwrite) ``key``; returns the stored blob."""
        self._check_available()
        self.writes += 1
        blob = Blob(key, self._maybe_tear(payload), self._sim.now,
                    self.writes, dict(metadata or {}))
        self._blobs.pop(key, None)  # a re-put moves to the end
        self._blobs[key] = blob
        return blob

    def get(self, key: str) -> Blob:
        """Fetch ``key`` or raise :class:`BlobNotFound`."""
        self._check_available()
        try:
            return self._blobs[key]
        except KeyError:
            raise BlobNotFound(f"{self.name}/{key}") from None

    def read(self, key: str, default: Any = None) -> Any:
        """The payload stored under ``key``, or ``default`` when absent."""
        try:
            return self.get(key).payload
        except BlobNotFound:
            return default

    def exists(self, key: str) -> bool:
        """Whether ``key`` is stored."""
        return key in self._blobs

    def delete(self, key: str) -> None:
        """Remove ``key`` or raise :class:`BlobNotFound`."""
        self._check_available()
        if key not in self._blobs:
            raise BlobNotFound(f"{self.name}/{key}")
        del self._blobs[key]

    def discard(self, key: str) -> None:
        """Remove ``key`` if it is stored; an absent key is not an error."""
        try:
            self.delete(key)
        except BlobNotFound:
            pass

    def list(self, prefix: str = "") -> List[str]:
        """Keys with the given prefix, sorted."""
        self._check_available()
        return sorted(k for k in self._blobs if k.startswith(prefix))

    def written_since(self, mark: int) -> List[str]:
        """Keys whose latest ``put`` came after write number ``mark``,
        oldest first; a key deleted since is not among them."""
        self._check_available()
        keys = []
        for blob in reversed(self._blobs.values()):
            if blob.write <= mark:
                break
            keys.append(blob.key)
        return keys[::-1]

    def total_bytes(self) -> int:
        """Sum of stored blob sizes."""
        return sum(b.size_bytes for b in self._blobs.values())

    def __len__(self) -> int:
        return len(self._blobs)


class BlobStore:
    """Top-level object store: a namespace of containers.

    Fault injection (see :class:`~repro.cloud.faults.FaultInjector`)
    can mark the whole store *unavailable* — every container operation
    raises :class:`StorageUnavailable` until healed — or arm a one-shot
    *torn write*: the next string ``put`` stores a truncated payload,
    the signature a write-ahead journal must detect and truncate.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self._sim = sim
        self.name = name
        self._containers: Dict[str, Container] = {}
        self._fault: Optional[str] = None
        self._torn_writes_pending = 0

    # -- fault hooks (driven by the FaultInjector) ---------------------------

    def set_fault(self, kind: str) -> None:
        """Arm a fault: ``"unavailable"`` or ``"torn_write"``."""
        if kind == "unavailable":
            self._fault = kind
        elif kind == "torn_write":
            self._torn_writes_pending += 1
        else:
            raise ValueError(f"unknown storage fault kind {kind!r}")

    def clear_fault(self) -> None:
        """Heal the store (torn writes already armed stay armed)."""
        self._fault = None

    @property
    def faulted(self) -> bool:
        """Whether the store is currently refusing requests."""
        return self._fault == "unavailable"

    def _check_fault(self) -> None:
        if self._fault == "unavailable":
            raise StorageUnavailable(f"blob store {self.name!r} unavailable")

    def consume_torn_write(self) -> bool:
        """Whether the current ``put`` should tear (one-shot)."""
        if self._torn_writes_pending > 0:
            self._torn_writes_pending -= 1
            return True
        return False

    def create_container(self, name: str) -> Container:
        """Create (or return the existing) container ``name``."""
        if name not in self._containers:
            self._containers[name] = Container(name, self._sim, store=self)
        return self._containers[name]

    def container(self, name: str) -> Container:
        """Fetch an existing container or raise :class:`ContainerNotFound`."""
        try:
            return self._containers[name]
        except KeyError:
            raise ContainerNotFound(name) from None
