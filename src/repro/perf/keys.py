"""Canonical cache keys for content-addressed run caching.

A cache key must depend only on the *content* of its inputs, never on
incidental representation details — dict insertion order, tuple-vs-list
spelling, or an object's ``repr`` (which can embed memory addresses and
silently defeats the cache).  :func:`canonical` normalises a parameter
structure into a JSON-stable form and *rejects* anything that has no
canonical JSON spelling, so a non-reproducible key is a loud error
instead of a silent cache miss.

Shared by the workflow engines' stage caches and the model-run
:class:`~repro.perf.runcache.RunCache`.

It also holds the two prebuilt JSON encoders, :data:`CANONICAL` and
:data:`WIRE`, and :class:`Sized`, a document rendered for the wire once.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

#: Sorted keys, no whitespace: the one spelling of a key or a record.
CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: The wire text of a body (``default=str``), built once instead of per
#: call as ``json.dumps`` builds it.
WIRE = json.JSONEncoder(default=str)


class Sized(dict):
    """A JSON document that carries its :data:`WIRE` size.

    The size is rendered on first demand and then travels with the
    document: :meth:`copy` hands it to the copy, so a memoised model
    result or a materialized view row is rendered once per content, not
    once per response.  A top-level write forgets the size; a list
    edited in place does not, so a document's lists are content and are
    not edited.  :meth:`copy` copies them one level down, so a reader
    that edits its copy cannot reach the original.
    """

    __slots__ = ("_size", "_lists")

    def wire_size(self) -> int:
        """The length of this document's :data:`WIRE` text, rendered once."""
        size = getattr(self, "_size", None)
        if size is None:
            size = self._size = len(WIRE.encode(self))
            self._lists = [name for name, value in self.items()
                           if isinstance(value, list)]
        return size

    def copy(self) -> "Sized":
        """A copy a reader may mutate, carrying the size."""
        size = self.wire_size()
        twin = Sized(self)
        for name in self._lists:
            twin[name] = list(self[name])
        twin._size, twin._lists = size, self._lists
        return twin


def _forgetting(write):
    def forgets_size(self, *args, **kwargs):
        self._size = None
        return write(self, *args, **kwargs)
    return forgets_size


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop",
              "popitem", "setdefault", "update"):
    setattr(Sized, _name, _forgetting(getattr(dict, _name)))


class CanonicalisationError(TypeError):
    """A value cannot be canonicalised into a stable cache key."""


def canonical(value: Any, path: str = "value") -> Any:
    """Recursively normalise ``value`` for stable JSON serialisation.

    Dicts keep (string) keys and are sorted at dump time; tuples become
    lists so ``(1, 2)`` and ``[1, 2]`` address the same entry; scalars
    pass through.  Anything else — objects, sets, functions — raises
    :class:`CanonicalisationError` naming the offending path.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CanonicalisationError(
                    f"{path}: dict key {key!r} is not a string; cache keys "
                    f"need JSON-compatible parameters")
            out[key] = canonical(item, f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [canonical(item, f"{path}[{i}]")
                for i, item in enumerate(value)]
    raise CanonicalisationError(
        f"{path}: {type(value).__name__} value {value!r} is not "
        f"JSON-serialisable; cache keys need JSON-compatible parameters "
        f"(str, int, float, bool, None, list/tuple, dict)")


def canonical_json(value: Any, path: str = "value") -> str:
    """The canonical JSON text of ``value`` (sorted keys, no whitespace)."""
    return CANONICAL.encode(canonical(value, path))


def content_key(value: Any, path: str = "value") -> str:
    """Hex digest (16 digits) of the canonical JSON of ``value``."""
    return _digest(canonical_json(value, path))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def forcing_digest(*series: Optional[Any]) -> str:
    """Content digest of one or more forcing :class:`TimeSeries`.

    ``None`` entries are allowed (an absent PET series is part of the
    content).  Two series digest equal iff their start, timestep and
    values match — name/units are presentation, not content.
    """
    hasher = hashlib.sha256()
    for entry in series:
        if entry is None:
            hasher.update(b"\x00none")
            continue
        hasher.update(repr(entry.start).encode())
        hasher.update(repr(entry.dt).encode())
        for value in entry:
            hasher.update(repr(value).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]


def run_key(model_id: str, parameters: Any, forcing: str = "") -> str:
    """The content-addressed key of one model run.

    ``model_id`` names the model binding (which catchment, which
    structure), ``parameters`` is the canonicalised parameter set and
    ``forcing`` is a :func:`forcing_digest` — the same triple the
    workflow engine's stage cache hashes, applied to single model runs.
    The parameters are walked once: the triple around them is already
    canonical, so it goes straight to :data:`CANONICAL`.
    """
    return _digest(CANONICAL.encode({
        "model": model_id, "params": canonical(parameters, "parameters"),
        "forcing": forcing}))
