"""The one error envelope: RFC-7807-style problem documents.

Every non-2xx body the fabric produces, a refusal's included, is built
here.  Before this module each engine invented its own ``{"error": ...}``
dict, which left clients string-matching to decide whether a failure was
worth retrying.  A problem document makes that decision explicit:

* ``type`` — a stable, machine-readable slug for the failure class;
* ``title`` — the short human summary;
* ``status`` — the HTTP status, repeated in the body so a problem
  document is self-describing even off the wire;
* ``detail`` — the specific occurrence;
* ``retryable`` — whether an *identical* request may succeed later.

``retryable`` is the field the resilience layer keys on: a
:class:`~repro.resilience.policy.RetryPolicy` consults it before
scheduling a backoff, so a handler that knows its failure is permanent
(validation, missing resource, access denied) can stop a client from
burning its retry budget.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.events import Event
from repro.obs.refusal import Cause

#: Namespace prefix of problem ``type`` URIs (a label, never dereferenced).
PROBLEM_TYPE_BASE = "evop:problem:"

#: Statuses that default to ``retryable=True`` when the builder is not
#: told otherwise: timeouts, throttling and upstream overload are the
#: transient conditions a backoff can outwait.
RETRYABLE_STATUSES = frozenset({408, 429, 502, 503, 504})


def problem(status: int, title: str, detail: str = "",
            retryable: Optional[bool] = None,
            type_slug: Optional[str] = None,
            **extra: Any) -> Dict[str, Any]:
    """Build a problem document body.

    ``retryable`` defaults from the status class (see
    :data:`RETRYABLE_STATUSES`); pass it explicitly whenever the handler
    knows better.  ``extra`` fields ride along for problem-specific
    context (the offending input name, the shed queue depth, ...).
    """
    if retryable is None:
        retryable = status in RETRYABLE_STATUSES
    slug = type_slug or _slug_of(title)
    doc: Dict[str, Any] = {
        "type": f"{PROBLEM_TYPE_BASE}{slug}",
        "title": title,
        "status": int(status),
        "detail": detail or title,
        "retryable": bool(retryable),
    }
    doc.update(extra)
    return doc


def refusal_problem(event: Event) -> Dict[str, Any]:
    """The wire form of one ``refused`` event: its :class:`Cause` row plus
    what the refusing site recorded — its ``detail``, the who, the where."""
    cause = Cause(event.fields["cause"])
    return problem(cause.status, cause.title, type_slug=cause.slug,
                   **event.fields)


def retryable_from_body(body: Any) -> Optional[bool]:
    """The body's own retryability verdict, if it carries one."""
    if isinstance(body, dict) and isinstance(body.get("retryable"), bool):
        return body["retryable"]
    return None


def _slug_of(title: str) -> str:
    slug = "".join(c if c.isalnum() else "-" for c in title.lower())
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-") or "error"
