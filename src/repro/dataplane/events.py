"""The one event shape flowing through the data plane.

An :class:`Event` is immutable and content-addressed by its position:
``(stream, seq)`` identifies it forever, which is what lets consumers
redeliver safely (views deduplicate by sequence) and lets a dropped
view be rebuilt bit-identically from replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


class CanonicalPayload(dict):
    """A payload already in canonical JSON form: what the relay read back
    from a ``pending/`` document, which took the round trip when it was
    recorded.  ``EventStream.append`` validates any other mapping."""

    __slots__ = ()


@dataclass(frozen=True)
class Event:
    """One durable event on one stream.

    ``key`` is the partition/entity key (procedure id, dataset id, run
    id) — all state a view derives from an event must be scoped to its
    key's stream, so that cross-stream consumption order never matters.
    ``payload`` is a JSON-safe dict (enforced at append time).
    """

    stream: str
    seq: int
    time: float
    kind: str
    key: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_document(self) -> Dict[str, Any]:
        """A serialisable rendering (DLQ entries, admin views)."""
        return {
            "stream": self.stream,
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "key": self.key,
            "payload": dict(self.payload),
        }
