"""The resilient request path: one wrapper around ``Network.request``.

:class:`ResilientClient` composes the fabric — per-target circuit
breakers, per-target bulkheads, retry with deterministic jittered
backoff, and hedging for safe routes — behind a single ``call`` whose
contract is deliberately boring: *it always fires its signal with an*
:class:`~repro.services.transport.HttpResponse`.  Transport-level
failures that survive every retry are synthesised into problem-document
responses (504 for timeouts, 503 for refusals and open circuits, 429
for local sheds), so callers branch on status and ``retryable`` instead
of type-switching on transport artefacts.

Addresses may be given as a callable — re-resolved before every attempt
and every hedge — which is what lets a retry after a crash land on the
replacement instance rather than hammering the corpse.

Every decision the fabric takes is observable: a ``resilience`` span
per call (annotated with retries/hedges/refusals), ``repro.obs`` events
per incident (a shed or a fast-fail is a ``refused`` event), and metrics
counters a bench snapshot can print.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from repro.obs.context import inject_context
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.bulkhead import BulkheadGroup
from repro.resilience.policy import RetryPolicy
from repro.services.envelope import problem, refusal_problem
from repro.services.transport import (
    ConnectionRefused,
    HttpRequest,
    HttpResponse,
    Network,
    RequestTimeout,
)
from repro.sim import RandomStreams, Signal, Simulator
from repro.tenancy.context import DEFAULT_TENANT, TENANT_HEADER

#: Hedge delay used until enough latency samples exist for a p95.
DEFAULT_HEDGE_DELAY = 1.0
#: Latency samples needed before the hedge delay adapts to observed p95.
HEDGE_MIN_SAMPLES = 20
#: How long a request waits for an address to appear before giving up
#: on this poll (the overall deadline still bounds the total wait).
ADDRESS_POLL = 5.0
#: Cap on how long a queued request waits for a bulkhead slot.
QUEUE_WAIT = 10.0

AddressLike = Union[str, Callable[[], Optional[str]]]


def observed_breakers(sim: Simulator, metrics=None) -> BreakerRegistry:
    """A :class:`BreakerRegistry` wired into obs events and metrics.

    Use one shared registry per fleet: the client fabric, the load
    balancer and the provisioner all consult the same trip state.
    """

    def on_transition(target: str, old: str, new: str) -> None:
        obs_of(sim).events.emit("resilience.breaker", target=target,
                               from_state=old, to_state=new)
        if metrics is not None:
            if new == "open":
                metrics.counter("breaker.trips").increment()
            elif new == "closed":
                metrics.counter("breaker.recoveries").increment()

    return BreakerRegistry(sim, on_transition=on_transition)


class ResilientClient:
    """Retries, breakers, admission and hedging around one network."""

    def __init__(self, sim: Simulator, network: Network, *,
                 service: str = "service",
                 policy: Optional[RetryPolicy] = None,
                 streams: Optional[RandomStreams] = None,
                 breakers: Optional[BreakerRegistry] = None,
                 metrics=None,
                 max_in_flight: int = 8, max_queue: int = 16,
                 hedge: bool = True,
                 hedge_after: Optional[float] = None):
        self.sim = sim
        self.network = network
        self.service = service
        self.policy = policy or RetryPolicy()
        self.streams = streams or RandomStreams()
        self.metrics = metrics if metrics is not None else None
        self.breakers = breakers if breakers is not None \
            else observed_breakers(sim, metrics)
        self.bulkheads = BulkheadGroup(sim, max_in_flight=max_in_flight,
                                       max_queue=max_queue)
        self.hedge = hedge
        self.hedge_after = hedge_after

    # -- public API --------------------------------------------------------

    def call(self, address: AddressLike, request: HttpRequest, *,
             safe: Optional[bool] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None,
             trace: Any = None,
             service: Optional[str] = None) -> Signal:
        """Send ``request`` resiliently; the signal always gets a response.

        ``safe`` marks the request replayable (defaults to GET-ness);
        ``timeout`` bounds each attempt and ``deadline`` the whole call;
        ``trace`` parents the resilience span so retries show up inside
        the caller's trace.
        """
        if safe is None:
            safe = request.method == "GET"
        done = self.sim.signal(f"resilience.{request.method}.{request.path}")
        resolve = address if callable(address) else (lambda: address)
        self.sim.spawn(
            self._run(done, resolve, request, safe,
                      timeout if timeout is not None
                      else self.policy.attempt_timeout,
                      deadline if deadline is not None
                      else self.policy.deadline,
                      trace, service or self.service),
            name=f"resilience.call.{request.path}")
        return done

    # -- the retry loop ----------------------------------------------------

    def _run(self, done: Signal, resolve: Callable[[], Optional[str]],
             base_request: HttpRequest, safe: bool, timeout: float,
             deadline: float, trace: Any, service: str):
        start = self.sim.now
        rng = self.streams.get("resilience.backoff")
        events = obs_of(self.sim).events
        span = obs_of(self.sim).tracer.start_span(
            f"resilience {base_request.method} {base_request.path}",
            parent=trace, kind="client",
            attributes={"service": service, "safe": safe})
        self._count("requests")

        def shed(cause: Cause, target: str, detail: str) -> HttpResponse:
            event = refuse(
                self.sim, cause, span=span, service=service, target=target,
                tenant=base_request.headers.get(TENANT_HEADER, DEFAULT_TENANT),
                path=base_request.path, detail=detail)
            return HttpResponse(status=cause.status,
                                body=refusal_problem(event))

        attempt = 0
        address: Optional[str] = None
        outcome: Any = None
        exhausted = "attempts"
        while True:
            remaining = deadline - (self.sim.now - start)
            if remaining <= 0:
                exhausted = "deadline"
                break
            address = resolve()
            if address is None:
                # the target is still provisioning; waiting costs budget
                # but no attempt — there is nothing to talk to yet
                span.annotate("no address yet")
                yield min(ADDRESS_POLL, remaining)
                continue
            breaker = self.breakers.get(BreakerRegistry.key(service, address))
            if not breaker.allow():
                self._count("breaker.fastfail")
                outcome = shed(Cause.CIRCUIT_OPEN, address,
                               f"circuit open for {service}@{address}")
            else:
                outcome = yield from self._admit(address, remaining, shed)
                if outcome is None:
                    outcome = yield from self._wire(
                        resolve, address, base_request,
                        min(timeout, remaining), safe, span, events)
                    if self._target_failure(outcome):
                        breaker.record_failure()
                    else:
                        breaker.record_success()
            attempt += 1
            self._count("attempts")
            if self._target_failure(outcome):
                # attempt-level failures are the operator's early signal:
                # retries and failover can still save the *request*, so
                # final-status error counters stay flat while the fleet
                # is actually impaired — availability SLOs watch this
                self._count("attempt.failures")
            if isinstance(outcome, HttpResponse) and outcome.ok:
                exhausted = ""
                break
            if not self.policy.should_retry(outcome, safe):
                exhausted = ""
                break
            if attempt >= self.policy.max_attempts:
                exhausted = "attempts"
                break
            delay = self.policy.backoff(attempt - 1, rng)
            remaining = deadline - (self.sim.now - start)
            if delay >= remaining:
                exhausted = "deadline"
                break
            self._count("retries")
            events.emit("resilience.retry", target=address,
                        path=base_request.path, attempt=attempt,
                        backoff=round(delay, 4))
            span.annotate("retry", attempt=attempt, backoff=round(delay, 4))
            yield delay

        response = self._as_response(outcome, address, deadline, exhausted)
        span.set_attribute("attempts", attempt)
        span.set_attribute("status", response.status)
        span.finish(error=None if response.status < 500
                    else f"http {response.status}")
        self._count("success" if response.ok else "errors")
        if self.metrics is not None:
            # end-to-end duration with a trace exemplar: a bad bucket
            # keeps the trace id of a request that actually landed there
            self.metrics.histogram("request.duration").observe(
                self.sim.now - start,
                exemplar={"trace_id": span.trace_id, "t": self.sim.now,
                          "status": response.status})
        if not done.fired:
            done.fire(response)

    # -- admission ---------------------------------------------------------

    def _admit(self, address: str, budget: float, shed):
        """Hold a bulkhead slot (``None``) or answer with the ``shed``."""
        bulkhead = self.bulkheads.get(address)
        ticket = bulkhead.acquire()
        if ticket.admitted:
            return None
        if ticket.shed:
            self._count("shed")
            return shed(Cause.BULKHEAD_FULL, address,
                        f"bulkhead full for {address}")
        # queued: race the admission gate against the wait cap
        self._count("queued")
        decided = self.sim.signal(f"resilience.admit.{address}")
        wait = min(QUEUE_WAIT, budget)
        timer = self.sim.schedule(wait, self._fire_unset, decided, False)

        def on_gate(granted: bool) -> None:
            if granted and not decided.fired:
                decided.fire(True)

        ticket.gate.then(on_gate)
        admitted = yield decided
        timer.cancel()
        if admitted:
            return None
        if not bulkhead.abandon(ticket):
            # the slot was granted in the same instant the timer popped;
            # it is ours, so use it rather than leak it
            return None
        self._count("shed")
        return shed(Cause.ADMISSION_TIMEOUT, address,
                    f"no bulkhead slot for {address} within {wait:.1f}s")

    # -- the wire (with hedging) -------------------------------------------

    def _wire(self, resolve: Callable[[], Optional[str]], address: str,
              base_request: HttpRequest, timeout: float, safe: bool,
              span, events):
        bulkhead = self.bulkheads.get(address)
        started = self.sim.now
        # hedging is for read-only routes: a GET duplicated costs header
        # bytes, a replayable POST duplicated costs a second model run
        hedge_delay = (self._hedge_delay()
                       if (safe and self.hedge
                           and base_request.method == "GET") else None)
        primary = self._send(address, base_request, timeout, span)
        if hedge_delay is None or hedge_delay >= timeout:
            outcome = yield primary
            bulkhead.release()
            self._observe_latency(outcome, started)
            return outcome

        decided = self.sim.signal("resilience.hedge")
        state = {"pending": 1}

        def watch(sig: Signal, label: str, slot_owner) -> None:
            def settled(out: Any) -> None:
                slot_owner.release()
                self._observe_latency(out, started)
                state["pending"] -= 1
                won = isinstance(out, HttpResponse) and out.ok
                if decided.fired:
                    return
                # first success wins; a failure only settles the race
                # once nothing else is still in flight
                if won or state["pending"] == 0:
                    if label == "hedge" and won:
                        self._count("hedge.wins")
                    decided.fire(out)
            sig.then(settled)

        watch(primary, "primary", bulkhead)

        def launch_hedge() -> None:
            if decided.fired:
                return
            # hedges re-resolve: after a failover the second attempt
            # should go to the replacement, not the same slow target
            hedge_address = resolve() or address
            hedge_bulkhead = self.bulkheads.get(hedge_address)
            if not hedge_bulkhead.try_acquire():
                return  # never displace demand traffic for a hedge
            self._count("hedges")
            events.emit("resilience.hedge", target=hedge_address,
                        path=base_request.path)
            span.annotate("hedged", target=hedge_address)
            state["pending"] += 1
            hedge_signal = self._send(hedge_address, base_request,
                                      max(0.1, timeout - hedge_delay), span)
            watch(hedge_signal, "hedge", hedge_bulkhead)

        hedge_timer = self.sim.schedule(hedge_delay, launch_hedge)
        outcome = yield decided
        hedge_timer.cancel()
        return outcome

    def _send(self, address: str, base_request: HttpRequest,
              timeout: float, span) -> Signal:
        # each attempt gets fresh headers: the traceparent of *this*
        # attempt, never a stale one from a previous try
        headers = dict(base_request.headers)
        inject_context(span.context, headers)
        request = HttpRequest(base_request.method, base_request.path,
                              base_request.body, dict(base_request.query),
                              headers)
        return self.network.request(address, request, timeout=timeout)

    # -- helpers -----------------------------------------------------------

    def _hedge_delay(self) -> Optional[float]:
        if self.hedge_after is not None:
            return self.hedge_after
        if self.metrics is None:
            return DEFAULT_HEDGE_DELAY
        recorder = self.metrics.recorder("attempt_latency")
        if recorder.count < HEDGE_MIN_SAMPLES:
            return DEFAULT_HEDGE_DELAY
        return max(0.05, recorder.percentile(95))

    def _observe_latency(self, outcome: Any, started: float) -> None:
        if self.metrics is not None and isinstance(outcome, HttpResponse):
            self.metrics.recorder("attempt_latency").record(
                self.sim.now - started)

    @staticmethod
    def _target_failure(outcome: Any) -> bool:
        if isinstance(outcome, (ConnectionRefused, RequestTimeout)):
            return True
        return isinstance(outcome, HttpResponse) and outcome.status >= 500

    def _as_response(self, outcome: Any, address: Optional[str],
                     deadline: float, exhausted: str) -> HttpResponse:
        if isinstance(outcome, HttpResponse):
            return outcome
        if isinstance(outcome, ConnectionRefused):
            return HttpResponse(status=503, body=problem(
                503, "connection refused",
                f"{outcome.address} refused the connection", retryable=True))
        if isinstance(outcome, RequestTimeout):
            return HttpResponse(status=504, body=problem(
                504, "upstream timeout",
                f"no response from {outcome.address} within "
                f"{outcome.after_seconds:.1f}s", retryable=True))
        detail = ("deadline exhausted before any attempt completed"
                  if exhausted == "deadline"
                  else f"no address for target within {deadline:.1f}s")
        return HttpResponse(status=504, body=problem(
            504, "resilience budget exhausted", detail, retryable=True))

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()

    @staticmethod
    def _fire_unset(signal: Signal, value: Any) -> None:
        if not signal.fired:
            signal.fire(value)
