"""Exactly once at the API edge, whatever the interleaving.

A Hypothesis state machine drives one :class:`IdempotencyIndex` through
keyed attempts (two tenants, two keys, two request fingerprints), their
answers — a recorded 2xx or a forgotten 5xx, in any order, stale
attempts included — and clock ticks short of and past the reservation's
TTL.  Throughout, each ``(tenant, key)`` has at most one live
reservation, a slot's epoch only rises, an attempt that lost its slot's
lease can neither record nor release it, and a replay serves only what
the lease holder recorded, for the tenant that sent it.
"""

from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cloud import BlobStore
from repro.services.idempotency import (PENDING_TTL, Admission,
                                        IdempotencyIndex)
from repro.sim import Simulator
from repro.tenancy import DEFAULT_TENANT


@dataclass(eq=False)
class Attempt:
    """One fresh admission, still waiting for its answer."""

    tenant: str
    key: str
    ticket: Admission
    at: float
    body: dict


class IdempotencyBook(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.container = BlobStore(self.sim).create_container("idempotency")
        self.index = IdempotencyIndex(self.sim, self.container)
        #: fresh attempts not yet answered, stale ones included
        self.outstanding = []
        #: (tenant, key) -> the attempt the lease was last granted to
        self.holder = {}
        #: (tenant, key) -> the body its lease holder recorded
        self.recorded = {}
        #: (tenant, key) -> the highest epoch granted
        self.epochs = {}
        self.takeovers = 0

    @rule(tenant=st.sampled_from(["org-a", DEFAULT_TENANT]),
          key=st.sampled_from(["k1", "k2"]),
          fingerprint=st.sampled_from(["f1", "f2"]))
    def admit(self, tenant, key, fingerprint):
        slot = (tenant, key)
        admission = self.index.admit(key, fingerprint, tenant=tenant)
        if admission.kind == "replay":
            body = admission.response["body"]
            assert (body["tenant"], body["key"]) == slot
            assert body == self.recorded.get(slot)
        elif admission.kind == "fresh":
            assert admission.epoch > self.epochs.get(slot, -1)
            self.epochs[slot] = admission.epoch
            # a grant while the last holder is unanswered: it lapsed
            self.takeovers += slot in self.holder
            assert self.index.takeovers == self.takeovers
            attempt = Attempt(tenant, key, admission, self.sim.now,
                              {"tenant": tenant, "key": key,
                               "epoch": admission.epoch})
            self.holder[slot] = attempt
            self.outstanding.append(attempt)

    @precondition(lambda self: self.outstanding)
    @rule(data=st.data(), succeeded=st.booleans())
    def answer(self, data, succeeded):
        attempt = data.draw(st.sampled_from(self.outstanding))
        self.outstanding.remove(attempt)
        slot = (attempt.tenant, attempt.key)
        holds = self.holder.get(slot) is attempt
        if succeeded:
            stored = self.index.record(attempt.ticket, 200, attempt.body)
            assert stored == holds
            if stored:
                self.recorded[slot] = attempt.body
                del self.holder[slot]
            return
        before = self.container.read(attempt.ticket.slot)
        self.index.forget(attempt.ticket)
        if holds:
            del self.holder[slot]
        else:
            assert self.container.read(attempt.ticket.slot) == before

    @rule(seconds=st.sampled_from([1.0, PENDING_TTL + 1.0]))
    def tick(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    @invariant()
    def one_live_reservation_per_key(self):
        live = [(a.tenant, a.key) for a in self.outstanding
                if self.sim.now < a.at + PENDING_TTL]
        assert len(live) == len(set(live))


IdempotencyBook.TestCase.settings = settings(
    max_examples=50, stateful_step_count=12, deadline=None)
TestIdempotencyBook = IdempotencyBook.TestCase
