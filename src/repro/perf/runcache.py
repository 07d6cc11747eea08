"""Content-addressed, LRU-bounded cache of model-run results.

The GLUE/uncertainty widgets imply thousands of repeated model
evaluations per portal interaction, and most of them repeat parameter
sets the service has already run (calibration feeds GLUE; OAT sweeps
revisit reference points; two stakeholders poke the same slider).  The
:class:`RunCache` keys a run by *content* — model id + canonicalised
parameters + forcing digest, mirroring the stage-cache design in
:mod:`repro.workflow.engine` — so identical runs are served from memory
regardless of which analysis asked.

Hit/miss/eviction totals are plain counters read through ``stats()``;
nothing scrapes them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Tuple


class RunCache:
    """LRU cache of model-run results keyed by content.

    ``max_entries`` bounds memory (each entry is one simulated series or
    result object); at the bound the least-recently-used entry is
    evicted.  The cache is agnostic to what a "result" is — it stores
    whatever the runner's ``simulate`` returned, including captured
    deterministic failures.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookups ------------------------------------------------------------

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(found, value)``; a hit refreshes the entry's recency."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries at the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    # -- observability ------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Snapshot: hits, misses, evictions, entries, hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "hit_rate": self.hits / total if total else 0.0,
        }
