"""Tenant identity: the header contract, the default principal, fairness math.

The reproduction models the paper's "widening the circle" estate: one
cloud shared by farmers, flood engineers and the public.  A tenant is
the unit the estate is fair *between*, and every unit of work has one:
identity is a plain ``str``, resolved once at each way in (the /v1
boundary, session creation, a managed service's owner) and never
re-tested downstream.  A caller who says nothing is
:data:`DEFAULT_TENANT`, a tenant like any other — it has a DRR lane, a
token bucket, a ledger row, an idempotency namespace and a
``requests{tenant=default}`` counter.

Identity rides requests as a plain ``Tenant`` header — the same shape
as W3C ``traceparent`` baggage (see :mod:`repro.obs.context`) — and is
propagated verbatim by anything that forwards the request.  Formats do
not name the default: a client given no tenant stamps no header, and a
run payload or status document carries a ``tenant`` key only when the
request carried the header.

:func:`jain_index` is the fairness yardstick the scheduler and the
multi-tenant benchmark share: J(x) = (Σx)² / (n·Σx²), 1.0 when every
tenant gets the same normalized share, → 1/n under perfect capture by
one tenant.
"""

from __future__ import annotations

import re
from typing import Sequence

#: HTTP header carrying the tenant id end-to-end (case-sensitive, like
#: the transport's other headers).
TENANT_HEADER = "Tenant"

#: The principal of a request, session or service that names no other.
DEFAULT_TENANT = "default"

#: Tenant ids are DNS-label-ish: lowercase alphanumerics plus ``-``/``_``,
#: 1..64 chars, starting alphanumeric.  Anything else is a 400 at the
#: boundary, not a new lane in the scheduler.
_TENANT_ID_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")


def valid_tenant_id(raw: object) -> bool:
    """Whether ``raw`` is a well-formed tenant id."""
    return isinstance(raw, str) and bool(_TENANT_ID_RE.match(raw))


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant normalized shares.

    ``J = (Σx)² / (n · Σx²)`` — scale-free, 1.0 for equal shares,
    1/n when one tenant captures everything.  Empty input and the
    all-zero vector (nobody served anything) both report 1.0: there is
    no inequality to measure.
    """
    xs = [float(x) for x in shares]
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(xs) * squares)
