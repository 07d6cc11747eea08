"""Cursor pagination for the v1 collection routes.

Cursors are *keyset* cursors, not offsets: a cursor names the sort key
of the last item the client saw, and the next page is everything
strictly after that key.  Offsets break under ingest — a row appended
mid-pagination shifts every offset and the client skips or repeats
items — whereas a keyset cursor stays stable: new items sort after the
keys already handed out, so an old cursor keeps meaning "after that
item" forever.

The wire format is an opaque urlsafe-base64 blob of canonical JSON.
Clients must treat it as a token; the encoding exists so the server can
validate and order it, and so a cursor survives being pasted into a
query string.  Responses carry the next cursor twice: in the body
(``nextCursor``) and as an RFC-8288 ``Link: rel="next"`` header that
preserves the request's non-pagination query parameters.
"""

from __future__ import annotations

import base64
import bisect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.perf.keys import canonical_json
from repro.services.transport import HttpRequest

#: Page size when the client sends no ``limit``.
DEFAULT_LIMIT = 100

#: Upper bound on any requested ``limit``.
MAX_LIMIT = 500


class CursorError(ValueError):
    """A cursor that cannot be decoded or does not fit the route."""


def encode_cursor(key: Any) -> str:
    """Encode a sort key into an opaque cursor token."""
    text = canonical_json({"a": key})
    return base64.urlsafe_b64encode(text.encode()).decode().rstrip("=")


def decode_cursor(token: str) -> Any:
    """Decode a cursor token back into its sort key.

    Raises :class:`CursorError` on garbage — a tampered or truncated
    cursor is a client error (400), never a server fault.
    """
    try:
        padded = token + "=" * (-len(token) % 4)
        doc = json.loads(base64.urlsafe_b64decode(padded.encode()).decode())
    except (ValueError, UnicodeDecodeError) as err:
        raise CursorError(f"undecodable cursor {token!r}") from None
    if not isinstance(doc, dict) or "a" not in doc:
        raise CursorError(f"malformed cursor {token!r}")
    return doc["a"]


@dataclass
class Page:
    """One page of a collection, plus how to ask for the next one."""

    items: List[Any]
    next_cursor: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)
    total: int = 0


def parse_limit(query: Dict[str, str],
                default_limit: int = DEFAULT_LIMIT,
                max_limit: int = MAX_LIMIT) -> int:
    """The effective page size, validated.

    Raises :class:`CursorError` for a non-integer or non-positive
    ``limit``; values above the cap are clamped, not rejected —
    over-asking is a tuning mistake, not a protocol violation.
    """
    raw = query.get("limit")
    if raw is None:
        return default_limit
    try:
        limit = int(raw)
    except (TypeError, ValueError):
        raise CursorError(f"limit {raw!r} is not an integer") from None
    if limit < 1:
        raise CursorError(f"limit {limit} must be positive")
    return min(limit, max_limit)


def _next_link(request: HttpRequest, cursor: str, limit: int) -> str:
    """The RFC-8288 ``Link`` value for the next page.

    Non-pagination query parameters (temporal filters, etc.) are
    preserved so following the link keeps the client's filter.
    """
    query = {k: v for k, v in (request.query or {}).items()
             if k not in ("cursor", "limit")}
    query["cursor"] = cursor
    query["limit"] = str(limit)
    qs = "&".join(f"{k}={v}" for k, v in sorted(query.items()))
    return f"<{request.path}?{qs}>; rel=\"next\""


def paginate(request: HttpRequest, items: List[Any], keys: List[Any],
             *, default_limit: int = DEFAULT_LIMIT,
             max_limit: int = MAX_LIMIT) -> Page:
    """Slice ``items`` by the request's ``cursor``/``limit`` params.

    ``keys`` are the items' sort keys, parallel to ``items`` and in
    ascending order; each key must be a JSON-canonical value (the
    cursor round-trips through JSON, so tuples become lists).  A cursor
    past the end yields an empty page with no next link — the natural
    "you have seen everything" answer, not an error.

    Raises :class:`CursorError` on an undecodable cursor or bad limit;
    handlers convert that to a 400 problem document.
    """
    query = request.query or {}
    limit = parse_limit(query, default_limit, max_limit)
    start = 0
    token = query.get("cursor")
    if token:
        after = decode_cursor(token)
        try:
            start = bisect.bisect_right(keys, after)
        except TypeError:
            raise CursorError(
                f"cursor {token!r} does not fit this collection") from None
    page_items = items[start:start + limit]
    page = Page(items=page_items, total=len(items))
    if start + limit < len(items):
        page.next_cursor = encode_cursor(keys[start + limit - 1])
        page.headers["Link"] = _next_link(request, page.next_cursor, limit)
    return page
