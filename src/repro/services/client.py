"""Typed client for the v1 service API.

Every consumer of the portal/WPS/SOS services used to hand-build
:class:`~repro.services.transport.HttpRequest` objects — each call site
re-inventing paths, retry loops and ``If-None-Match`` bookkeeping.
:class:`RestClient` is the one place that knows the v1 contract: a
per-resource method for each route the tree calls (:meth:`request`
reaches the rest), the ``/v1`` paths, and a
built-in revalidation cache (a 304 is transparently replaced by the
cached representation, so callers always see a full response).

All traffic flows through a :class:`~repro.resilience.client.ResilientClient`,
which is where retry, breaker, admission and hedging policy live — a
call site states *what* it wants and how urgent it is (``timeout`` /
``deadline``), never *how* to survive a fault.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.resilience.client import ResilientClient
from repro.services.transport import HttpRequest, HttpResponse, Network
from repro.sim import Signal, Simulator
from repro.tenancy.context import TENANT_HEADER

AddressLike = Union[str, Callable[[], Optional[str]]]


class RestClient:
    """Per-resource methods over the v1 API, resilient by construction."""

    def __init__(self, sim: Simulator, network: Network,
                 address: AddressLike, *,
                 resilient: Optional[ResilientClient] = None,
                 service: str = "rest",
                 trace: Any = None,
                 timeout: Optional[float] = None,
                 deadline: Optional[float] = None,
                 tenant: Optional[str] = None):
        self.sim = sim
        self.address = address
        self.trace = trace
        self.timeout = timeout
        self.deadline = deadline
        #: tenant identity stamped on every request (the ``Tenant``
        #: header the /v1 boundary validates and rate-limits on)
        self.tenant = tenant
        self.resilient = resilient or ResilientClient(sim, network,
                                                      service=service)
        self._etag_cache: Dict[str, Tuple[str, Any]] = {}
        self.revalidated_hits = 0

    # -- generic entry point -----------------------------------------------

    def request(self, method: str, path: str, *, body: Any = None,
                query: Optional[Dict[str, str]] = None,
                headers: Optional[Dict[str, str]] = None,
                safe: Optional[bool] = None,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None,
                idempotency_key: Optional[str] = None) -> Signal:
        """Issue one v1 request; the signal always gets a response.

        GETs to previously seen resources carry ``If-None-Match``; a 304
        answer is replaced with the cached representation before the
        caller sees it.

        ``idempotency_key`` stamps a mutating request with an
        ``Idempotency-Key`` header.  A keyed mutation is exactly-once
        at the server, so the request becomes *safe* (unless the caller
        says otherwise): the retry stack may replay it on timeouts and
        transient failures without risking duplicate effects.
        """
        request_headers = dict(headers or {})
        if self.tenant is not None:
            request_headers.setdefault(TENANT_HEADER, self.tenant)
        if idempotency_key is not None:
            request_headers.setdefault("Idempotency-Key", idempotency_key)
            if safe is None:
                safe = True
        cached = self._etag_cache.get(path) if method == "GET" else None
        if cached is not None:
            request_headers.setdefault("If-None-Match", cached[0])
        raw = self.resilient.call(
            self.address,
            HttpRequest(method, path, body=body, query=dict(query or {}),
                        headers=request_headers),
            safe=safe, trace=self.trace,
            timeout=timeout if timeout is not None else self.timeout,
            deadline=deadline if deadline is not None else self.deadline)
        done = self.sim.signal(f"client.{method}.{path}")

        raw.then(lambda response: done.fire(self._revalidate(path, response)))
        return done

    def _revalidate(self, path: str, response: HttpResponse) -> HttpResponse:
        cached = self._etag_cache.get(path)
        if response.status == 304 and cached is not None:
            self.revalidated_hits += 1
            headers = dict(response.headers)
            headers["X-Revalidated"] = "true"
            return HttpResponse(status=200, body=cached[1], headers=headers)
        etag = response.headers.get("ETag")
        if etag and response.ok:
            self._etag_cache[path] = (etag, response.body)
        return response

    # -- API description ----------------------------------------------------

    def describe_api(self) -> Signal:
        """``GET /v1`` — the machine-readable route table."""
        return self.request("GET", "/v1")

    # -- WPS ----------------------------------------------------------------

    def describe_process(self, identifier: str) -> Signal:
        """``GET /v1/wps/processes/{id}`` — the DescribeProcess document."""
        return self.request("GET", f"/v1/wps/processes/{identifier}")

    def execute_wps(self, identifier: str, inputs: Dict[str, Any],
                    mode: str = "sync",
                    timeout: Optional[float] = None,
                    deadline: Optional[float] = None,
                    idempotency_key: Optional[str] = None) -> Signal:
        """``POST /v1/wps/processes/{id}/execute``.

        Declared safe: model execution is deterministic and records no
        per-request server state, so replaying a lost Execute is
        harmless — which is exactly what lets retries mask a mid-run
        instance crash.  With ``idempotency_key`` the server goes
        further: exactly one execution happens per key, and replays get
        the original response (one ``runId``, one run event).
        """
        return self.request(
            "POST", f"/v1/wps/processes/{identifier}/execute",
            body={"mode": mode, "inputs": inputs}, safe=True,
            timeout=timeout, deadline=deadline,
            idempotency_key=idempotency_key)

    def poll_status(self, status_location: str) -> Signal:
        """``GET <statusLocation>`` — poll an async execution."""
        return self.request("GET", status_location)

    # -- the CQRS read API (materialized views) -----------------------------

    def catchment_stats(self, catchment: str) -> Signal:
        """``GET /v1/catchments/{id}/stats`` — rolling stats (revalidated)."""
        return self.request("GET", f"/v1/catchments/{catchment}/stats")

    def latest_observations(self, cursor: Optional[str] = None,
                            limit: Optional[int] = None) -> Signal:
        """``GET /v1/observations/latest`` — latest table (paginated)."""
        return self.request("GET", "/v1/observations/latest",
                            query=_page_query({}, cursor, limit))

    def list_runs(self, status: Optional[str] = None,
                  cursor: Optional[str] = None,
                  limit: Optional[int] = None) -> Signal:
        """``GET /v1/runs`` — the run-summary index (paginated)."""
        query: Dict[str, str] = {}
        if status is not None:
            query["status"] = status
        return self.request("GET", "/v1/runs",
                            query=_page_query(query, cursor, limit))


def _page_query(query: Dict[str, str], cursor: Optional[str],
                limit: Optional[int]) -> Dict[str, str]:
    """Fold pagination params into a query dict."""
    if cursor is not None:
        query["cursor"] = cursor
    if limit is not None:
        query["limit"] = str(limit)
    return query
