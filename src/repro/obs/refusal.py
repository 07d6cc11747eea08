"""One refusal: the single way the estate says *no*.

A site that declines work calls :func:`refuse` and nothing else — it
never builds an event, a counter or an error body for that itself.  One
call leaves one ``refused`` event (a closed ``cause``, the ``tenant``,
whatever who / where the site holds) and one increment of
``refused{cause=,tenant=[,region=]}`` on the hub registry.  The event is
the refusal: :func:`repro.services.envelope.refusal_problem` renders its
wire form from the :class:`Cause` row.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.obs.events import Event
from repro.obs.hub import obs_of
from repro.sim.kernel import Simulator
from repro.tenancy.context import DEFAULT_TENANT


class Cause(enum.Enum):
    """Why work was declined: cause, wire status, title[, ``type`` slug]."""

    QUEUE_FULL = "queue_full", 503, "class queue full"
    LOCATION_BUDGET = "location_budget", 503, "location budget spent"
    TENANT_QUOTA = "tenant_quota", 429, "tenant quota spent"
    RATE_LIMITED = "rate_limited", 429, "rate limit exceeded"
    SERVER_OVERLOADED = "server_overloaded", 503, "server overloaded"
    REGION_DEGRADED = "region_degraded", 503, "region degraded"
    NO_REGION = "no_region", 503, "no region available"
    NO_LEADER = "no_leader", 503, "no ledger leader"
    BULKHEAD_FULL = "bulkhead_full", 429, "admission shed", "admission-shed"
    ADMISSION_TIMEOUT = ("admission_timeout", 429, "admission shed",
                         "admission-shed")
    CIRCUIT_OPEN = "circuit_open", 503, "circuit open"
    FENCED = "fenced", 409, "writer fenced"
    POISON = "poison", 422, "poison event"

    def __new__(cls, value: str, status: int, title: str, slug: str = ""):
        member = object.__new__(cls)
        member._value_ = value
        member.status, member.title = status, title
        member.slug = slug or value.replace("_", "-")
        return member


def refuse(sim: Simulator, cause: Cause, *, tenant: str = DEFAULT_TENANT,
           span: Any = None, **where: Any) -> Event:
    """Record that ``tenant`` was refused for ``cause``; returns the event.

    ``where`` is what the site knows (``None`` values are dropped; a
    ``region`` also labels the counter); ``span`` is the caller's open
    span, when it has one, and is annotated with the lot.
    """
    hub = obs_of(sim)
    fields = {"cause": cause.value, "tenant": tenant}
    fields.update((k, v) for k, v in where.items() if v is not None)
    labels = {k: fields[k] for k in ("cause", "tenant", "region")
              if k in fields}
    hub.metrics.counter("refused", **labels).increment()
    if span is not None:
        span.annotate("refused", **fields)
    return hub.events.emit("refused", **fields)


def refused(sim: Simulator, **labels: str) -> float:
    """Refusals counted so far on series carrying all of ``labels``."""
    return sum(counter.value
               for name, have, counter in obs_of(sim).metrics.instruments()
               if name == "refused" and labels.items() <= dict(have).items())
