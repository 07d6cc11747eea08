"""Stateless, resource-oriented REST engine.

The paper's architectural core: "RESTful web services remain completely
stateless with all data required to transition between different states
being included in the service request".  Consequences the benches verify:

* any replica of a service can answer any request (enabling the LB to
  route "to any available hosted service regardless of previous
  interactions"),
* killing a server loses no session state,
* the per-request server cost is flat — no transaction-state lookkeeping.

A :class:`RestApi` is a route table shared by every replica; a
:class:`RestServer` binds the api to one hosting instance, charging each
request's processing cost as a job on that instance (so CPU utilisation
and queueing reflect request load, which the LB observes).

The route table is **versioned**: every registered pattern is mounted
once, under ``/v1``; a path outside the version prefix has no route and
answers ``404`` like any other unknown path.  ``GET /v1`` answers with
a machine-readable description of the table (method, path, cost,
safety, cacheability) — the contract a typed client or a substitutable
execution node programs against.  All error bodies are RFC-7807-style
problem documents (:mod:`.envelope`) whose ``retryable`` field feeds
the client-side retry decision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.instance import Instance, Job, JobOutcome, ignore
from repro.obs.context import extract_context
from repro.obs.hub import obs_of
from repro.obs.refusal import Cause, refuse
from repro.obs.tracer import Span
from repro.services.envelope import problem, refusal_problem
from repro.services.idempotency import Admission, request_fingerprint
from repro.services.transport import HttpRequest, HttpResponse, Network
from repro.sim import Simulator
from repro.tenancy.context import (DEFAULT_TENANT, TENANT_HEADER,
                                   valid_tenant_id)
from repro.tenancy.registry import TenantRegistry

#: Default CPU cost (reference-core seconds) of a lightweight handler.
DEFAULT_HANDLER_COST = 0.005

#: The current (and only) API version routes are mounted under.
API_VERSION = "v1"


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 response.

    The problem-document body's ``retryable`` is the status class's
    default, so clients know whether backing off and replaying the
    identical request can help.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message

    def to_problem(self) -> Dict[str, Any]:
        """The problem document for this error."""
        return problem(self.status, self.message)


def _answer(produce: Callable[..., Any], *args: Any) -> Any:
    """``produce(*args)``: a handler's or a render's result, or the
    ``(status, problem)`` answer of the :class:`HttpError` it raised."""
    try:
        return produce(*args)
    except HttpError as err:
        return err.status, err.to_problem()


_PLACEHOLDER = re.compile(r"\{(\w+)\}")


@dataclass
class Route:
    """One method+path-pattern binding.

    Patterns use ``{name}`` placeholders: ``/datasets/{dataset_id}``.
    A placeholder stands for exactly one path segment and every other
    character of the pattern for itself (``/files/{name}.json`` wants a
    literal dot; the text is not a regular expression).  ``cost`` is the CPU charge of running the handler; handlers that do
    real modelling work instead return a :class:`RestDeferred` carrying
    their own job.  ``safe`` declares the handler side-effect-free /
    replayable (defaults to ``True`` for GET); ``cacheable`` declares
    that responses carry an ``ETag`` worth revalidating.
    """

    method: str
    pattern: str
    handler: Callable[[HttpRequest, Dict[str, str]], Any]
    cost: float = DEFAULT_HANDLER_COST
    safe: Optional[bool] = None
    cacheable: bool = False

    def __post_init__(self) -> None:
        if self.safe is None:
            self.safe = self.method == "GET"
        # literal text between placeholders matches itself and a
        # placeholder exactly one segment, so a matching path always has
        # the pattern's number of slashes — what RestApi buckets on
        parts = _PLACEHOLDER.split(self.pattern)
        self._compiled = re.compile("".join(
            f"(?P<{part}>[^/]+)" if i % 2 else re.escape(part)
            for i, part in enumerate(parts)))
        self._literal = len(parts) == 1
        #: what the handler's job (and its span) is called
        self.job_name = f"rest:{self.method}:{self.pattern}"


@dataclass
class RestDeferred:
    """A handler result that needs heavy compute.

    The server submits ``job`` to its instance and answers with
    ``render(job_outcome)`` once it completes — this is how WPS Execute
    turns a model run into instance load.
    """

    job: Job
    render: Callable[[Any], Tuple[int, Any]]


@dataclass
class RestCacheable:
    """A handler result carrying a revalidation token.

    The server compares ``etag`` against the request's ``If-None-Match``
    header: on a match it answers ``304 Not Modified`` with no body —
    the widget polling a dataset pays header bytes, not payload bytes —
    otherwise the full ``status``/``body`` goes out, stamped with an
    ``ETag`` header the client replays on its next poll.
    """

    body: Any
    etag: str
    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class RestBackground:
    """A handler result that answers now and keeps computing.

    The server responds immediately with ``status``/``body`` and submits
    ``job`` in the background (asynchronous WPS Execute: the job's
    ``compute`` records its own completion in shared storage).
    """

    job: Job
    status: int
    body: Any


class RestApi:
    """A versioned route table; stateless by construction.

    Registering ``GET /datasets`` mounts the route at ``/v1/datasets``;
    ``GET /v1`` describes the table.
    """

    def __init__(self, name: str):
        self.name = name
        self._routes: List[Route] = []
        # the lookup ``resolve`` reads, built as routes are mounted:
        # parameterless patterns by (method, path); the rest, in
        # registration order, by (method, number of slashes)
        self._exact: Dict[Tuple[str, str], Route] = {}
        self._parametric: Dict[Tuple[str, int], List[Route]] = {}
        #: Shared :class:`~repro.services.idempotency.IdempotencyIndex`;
        #: when set, mutating requests carrying an ``Idempotency-Key``
        #: header execute exactly once across every replica of this api.
        self.idempotency: Optional[Any] = None
        #: Optional admission guard: a callable taking the request and
        #: returning an :class:`HttpResponse` to answer with instead of
        #: serving, or ``None`` to admit.  Runs after routing, before
        #: any handler work — the geo layer installs one that sheds
        #: ``/v1`` traffic with a problem-document ``503 Retry-After``
        #: while the serving region is degraded and spillover saturated.
        self.guard: Optional[Callable[[HttpRequest],
                                      Optional[HttpResponse]]] = None
        #: The :class:`~repro.tenancy.registry.TenantRegistry` whose
        #: policy the boundary applies to ``Tenant`` headers (400
        #: malformed, 403 unknown under ``strict``, 401 missing under
        #: ``require_tenant``); knows only ``default`` until an estate
        #: shares its own.  Every request resolves to a tenant, and its
        #: span and RED metrics carry the label.
        self.tenants = TenantRegistry()
        #: Optional :class:`~repro.tenancy.ratelimit.RateLimiter`;
        #: when set, each request spends a token from its tenant's
        #: bucket and exhaustion answers 429 with ``Retry-After`` and
        #: ``X-RateLimit-*`` headers before any handler work.
        self.limiter: Optional[Any] = None
        self._mount(Route("GET", f"/{API_VERSION}", self._describe_api))

    def _mount(self, route: Route) -> None:
        self._routes.append(route)
        if not route._literal:
            self._parametric.setdefault(
                (route.method, route.pattern.count("/")), []).append(route)
        elif self._lookup(route.method, route.pattern)[0] is None:
            # first match wins: a literal path an earlier route already
            # answers stays shadowed, as it was under the linear scan
            self._exact[(route.method, route.pattern)] = route

    def route(self, method: str, pattern: str,
              handler: Callable[[HttpRequest, Dict[str, str]], Any],
              cost: float = DEFAULT_HANDLER_COST,
              safe: Optional[bool] = None, cacheable: bool = False) -> None:
        """Register ``handler`` for ``method /v1{pattern}``."""
        self._mount(Route(method, f"/{API_VERSION}{pattern}", handler,
                          cost, safe=safe, cacheable=cacheable))

    def get(self, pattern: str, handler, cost: float = DEFAULT_HANDLER_COST,
            cacheable: bool = False) -> None:
        """Register a GET route (safe)."""
        self.route("GET", pattern, handler, cost, cacheable=cacheable)

    def post(self, pattern: str, handler, cost: float = DEFAULT_HANDLER_COST,
             safe: Optional[bool] = None) -> None:
        """Register a POST route (never cacheable)."""
        self.route("POST", pattern, handler, cost, safe=safe)

    def resolve(self, request: HttpRequest) -> Tuple[Optional[Route], Dict[str, str]]:
        """Find the route matching ``request`` (first match wins)."""
        return self._lookup(request.method, request.path)

    def _lookup(self, method: str, path: str
                ) -> Tuple[Optional[Route], Dict[str, str]]:
        route = self._exact.get((method, path))
        if route is not None:
            return route, {}
        for route in self._parametric.get((method, path.count("/")), ()):
            found = route._compiled.fullmatch(path)
            if found is not None:
                return route, found.groupdict()
        return None, {}

    def describe(self) -> Dict[str, Any]:
        """The machine-readable contract of the route table."""
        return {
            "service": self.name,
            "version": API_VERSION,
            "routes": [
                {
                    "method": route.method,
                    "path": route.pattern,
                    "cost": route.cost,
                    "safe": bool(route.safe),
                    "cacheable": route.cacheable,
                }
                for route in self._routes
            ],
        }

    def _describe_api(self, request: HttpRequest, params: Dict[str, str]):
        return self.describe()


class RestServer:
    """One replica of a :class:`RestApi` hosted on an instance."""

    def __init__(self, sim: Simulator, api: RestApi, instance: Instance):
        self.sim = sim
        self.api = api
        self.instance = instance
        self.requests_handled = 0

    @property
    def address(self) -> str:
        """The network address of the hosting instance."""
        return self.instance.address

    def bind(self, network: Network) -> "RestServer":
        """Register this replica on the network; returns self."""
        network.register(self.instance.address, self, self.instance)
        return self

    def handle(self, request: HttpRequest,
               reply: Callable[[HttpResponse], None]) -> None:
        """Process a request; ``reply(response)`` is called once, inside
        the event that produced the response — or never, when the
        hosting instance dies first and the caller times out."""
        route, params = self.api.resolve(request)
        # traced requests get a server span covering route resolution
        # through response emission; the job it submits continues below it
        context = extract_context(request.headers)
        span: Optional[Span] = None
        if context is not None:
            span = obs_of(self.sim).tracer.start_span(
                f"rest {self.api.name} {request.method} "
                f"{route.pattern if route else request.path}",
                parent=context, kind="server",
                attributes={"instance": self.instance.instance_id})
        exchange = _Exchange(reply, span, self.sim.now,
                             obs_of(self.sim).api_metrics.sub(self.api.name),
                             DEFAULT_TENANT, None)
        if route is None:
            self._finish(exchange, HttpResponse(
                status=404,
                body=problem(404, "no route",
                             f"no route {request.method} {request.path}",
                             retryable=False)))
            return
        exchange.tenant, denied = self._resolve_tenant(request)
        if denied is not None:
            self._finish(exchange, denied)
            return
        if span is not None:
            span.set_attribute("tenant", exchange.tenant)
        if self.api.guard is not None:
            denial = self.api.guard(request)
            if denial is not None:
                self._finish(exchange, denial)
                return
        if self._admit_idempotent(exchange, request):
            return
        job = Job(cost=route.cost, name=route.job_name,
                  compute=partial(_answer, route.handler, request, params))
        if span is not None:
            job.trace = span.context
        self.instance.submit(job, partial(self._on_outcome, exchange,
                                          request))

    def _on_outcome(self, exchange: "_Exchange", request: HttpRequest,
                    outcome: JobOutcome) -> None:
        self.requests_handled += 1
        if not outcome.succeeded:
            self._job_failed(exchange, outcome)
            return
        result = outcome.value
        if isinstance(result, (RestDeferred, RestBackground)) \
                and exchange.span is not None and result.job.trace is None:
            result.job.trace = exchange.span.context
        if isinstance(result, RestDeferred):
            self.instance.submit(result.job, partial(
                self._on_deferred, exchange, result.render))
        elif isinstance(result, RestCacheable):
            self._finish(exchange, self._revalidate(request, result))
        elif isinstance(result, RestBackground):
            self.instance.submit(result.job, ignore)
            self._finish(exchange, HttpResponse(status=result.status,
                                                body=result.body))
        else:
            self._finish(exchange, self._coerce(result))

    def _on_deferred(self, exchange: "_Exchange",
                     render: Callable[[Any], Tuple[int, Any]],
                     deferred: JobOutcome) -> None:
        if not deferred.succeeded:
            self._job_failed(exchange, deferred)
            return
        try:
            response = self._coerce(_answer(render, deferred.value))
        except Exception as err:  # noqa: BLE001 - a 500, as a handler's
            response = self._error_response(str(err))
        self._finish(exchange, response)

    def _job_failed(self, exchange: "_Exchange",
                    outcome: JobOutcome) -> None:
        if outcome.error == "queue full":
            # a full accept queue is the canonical transient failure: the
            # same request against a quieter (or newly booted) replica works
            event = refuse(self.sim, Cause.SERVER_OVERLOADED,
                           tenant=exchange.tenant, span=exchange.span,
                           service=self.api.name,
                           instance=self.instance.instance_id,
                           detail="accept queue full")
            self._finish(exchange, HttpResponse(
                status=503, body=refusal_problem(event)))
        elif outcome.error and outcome.error.startswith("job raised"):
            self._finish(exchange, self._error_response(outcome.error))
        elif exchange.span is not None:
            # instance died: the response never leaves; the caller
            # times out, and the server span records why
            exchange.span.finish(error=outcome.error or "instance lost")

    def _resolve_tenant(self, request: HttpRequest
                        ) -> Tuple[str, Optional[HttpResponse]]:
        """Resolve the request's tenant, once, at the boundary.

        Returns ``(tenant_id, denial)``.  No ``Tenant`` header is the
        default tenant (a 401 when the registry requires one); a
        malformed header is a 400 and an unknown tenant under a strict
        registry a 403, both still the default tenant's for accounting.
        An installed limiter then spends a token from the tenant's
        bucket — an unlabelled flood is still a flood — and an
        exhausted one is a 429 carrying ``Retry-After`` +
        ``X-RateLimit-*``.
        """
        api = self.api
        raw = request.headers.get(TENANT_HEADER)
        if raw is None:
            if api.tenants.require_tenant:
                return DEFAULT_TENANT, HttpResponse(status=401, body=problem(
                    401, "tenant required",
                    f"requests to {api.name} must carry a "
                    f"{TENANT_HEADER} header",
                    retryable=False, type_slug="tenant-required"))
            tenant = DEFAULT_TENANT
        elif not valid_tenant_id(raw):
            return DEFAULT_TENANT, HttpResponse(status=400, body=problem(
                400, "invalid tenant",
                f"malformed {TENANT_HEADER} header {raw!r}",
                retryable=False, type_slug="invalid-tenant"))
        elif api.tenants.strict and not api.tenants.known(raw):
            return DEFAULT_TENANT, HttpResponse(status=403, body=problem(
                403, "unknown tenant",
                f"tenant {raw!r} is not registered with {api.name}",
                retryable=False, type_slug="unknown-tenant"))
        else:
            tenant = raw
        if api.limiter is not None:
            decision = api.limiter.check(tenant)
            if not decision.allowed:
                event = refuse(
                    self.sim, Cause.RATE_LIMITED, tenant=tenant,
                    service=api.name, instance=self.instance.instance_id,
                    retry_after=decision.retry_after,
                    detail=f"tenant {tenant!r} exhausted its request budget; "
                           f"retry after {decision.retry_after:.0f}s")
                return tenant, HttpResponse(status=429,
                                            body=refusal_problem(event),
                                            headers=decision.headers())
        return tenant, None

    def _admit_idempotent(self, exchange: "_Exchange",
                          request: HttpRequest) -> bool:
        """Classify a keyed mutating request before any work happens.

        Returns whether the admission itself answered the request
        (replay, conflict, in-flight).  A fresh admission is the ticket
        the final ``_finish`` must record under, kept on ``exchange``;
        an unkeyed request leaves it ``None``.  Keys are tenant-scoped:
        the same key from two tenants is two independent requests."""
        index = self.api.idempotency
        key = request.headers.get("Idempotency-Key")
        if index is None or not key or request.method == "GET":
            return False
        admission = index.admit(key, request_fingerprint(
            request.method, request.path, request.body),
            tenant=exchange.tenant)
        if admission.kind == "replay":
            stored = admission.response or {}
            headers = dict(stored.get("headers") or {})
            headers["Idempotency-Replayed"] = "true"
            self._finish(exchange, HttpResponse(
                status=stored.get("status", 200), body=stored.get("body"),
                headers=headers))
            return True
        if admission.kind == "conflict":
            self._finish(exchange, HttpResponse(status=422, body=problem(
                422, "idempotency key reuse",
                f"Idempotency-Key {key!r} was already used with a "
                f"different request", retryable=False)))
            return True
        if admission.kind == "pending":
            # Another attempt with this key is executing right now; a
            # retryable 409 lets the client's backoff outwait it and
            # collect the replay.
            self._finish(exchange, HttpResponse(status=409, body=problem(
                409, "request in flight",
                f"Idempotency-Key {key!r} has an attempt in flight",
                retryable=True)))
            return True
        exchange.ticket = admission
        return False

    def _error_response(self, error: str) -> HttpResponse:
        # a handler or render raised something other than an HttpError
        match = re.search(r"job raised: (.*)", error)
        message = match.group(1) if match else error
        return HttpResponse(status=500, body=problem(
            500, "handler error", message, retryable=False))

    @staticmethod
    def _revalidate(request: HttpRequest,
                    cacheable: RestCacheable) -> HttpResponse:
        headers = dict(cacheable.headers)
        headers["ETag"] = cacheable.etag
        if request.headers.get("If-None-Match") == cacheable.etag:
            return HttpResponse(status=304, body=None, headers=headers)
        return HttpResponse(status=cacheable.status, body=cacheable.body,
                            headers=headers)

    @staticmethod
    def _coerce(result: Any) -> HttpResponse:
        # handlers return a body, a (status, body) pair, or a
        # (status, body, headers) triple
        if isinstance(result, tuple) and isinstance(result[0], int):
            if len(result) == 2:
                return HttpResponse(result[0], result[1])
            if len(result) == 3:
                return HttpResponse(result[0], result[1],
                                    dict(result[2] or {}))
        return HttpResponse(200, result)

    def _finish(self, exchange: "_Exchange", response: HttpResponse) -> None:
        """Record, close, meter and send ``response``: the one way out."""
        ticket = exchange.ticket
        if ticket is not None:
            if response.status < 500:
                # pin the outcome: every replay of this key now gets
                # exactly this response without re-running the handler
                self.api.idempotency.record(ticket, response.status,
                                            response.body, response.headers)
            else:
                # the handler never completed usefully (5xx); drop the
                # lease so a retry may take it — the slot's epoch stays
                self.api.idempotency.forget(ticket)
        span = exchange.span
        if span is not None and not span.finished:
            span.set_attribute("status", response.status)
            span.finish(error=None if response.status < 500
                        else f"http {response.status}")
        # RED metrics: requests/errors per tenant, and a duration whose
        # buckets keep a trace exemplar (a replica that never answers
        # records nothing — the client's view covers that failure mode)
        metrics = exchange.metrics
        metrics.counter("requests", tenant=exchange.tenant).increment()
        if response.status >= 500:
            metrics.counter("errors", tenant=exchange.tenant).increment()
        exemplar = None
        if span is not None:
            exemplar = {"trace_id": span.trace_id, "t": self.sim.now,
                        "status": response.status}
        metrics.histogram("duration").observe(
            self.sim.now - exchange.started, exemplar=exemplar)
        exchange.reply(response)


@dataclass
class _Exchange:
    """One request's server-side state, from routing to its reply."""

    reply: Callable[[HttpResponse], None]
    span: Optional[Span]
    started: float
    metrics: Any
    #: answers given before an identity is established (no route, a
    #: refused header) are the default tenant's
    tenant: str
    ticket: Optional[Admission]
