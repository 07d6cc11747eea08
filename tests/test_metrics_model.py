"""The one metrics model, end to end: instrument -> scraper -> store -> API.

Labels are native to :class:`~repro.sim.metrics.MetricsRegistry`, a probe
is a callback gauge on a registry, and the scraper samples raw signals
only.  These tests pin that model against the spelling it replaced (a
counter per tenant *name* beside an aggregate twin, kept here as the
oracle), against the exact percentile a windowed bucket estimate stands
for, and over the published ``/v1/observability`` API.
"""

import inspect
import math
import re
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Flavor, ImageKind, Instance, MachineImage
from repro.core import Evop, EvopConfig
from repro.hydrology.vectorized import HAVE_NUMPY
from repro.obs import MetricsScraper, SeriesStore, TelemetryPlane, obs_of
from repro.obs.telemetry import window_quantile
from repro.services import HttpRequest, RestApi
from repro.services.obsapi import build_observability_api
from repro.services.rest import RestServer
from repro.sim import MetricsRegistry, Simulator
from repro.tenancy.context import TENANT_HEADER

TENANTS = ("default", "org-a", "org-b")
FAMILIES = ("requests", "errors", "throttled")


# ------------------------------------------------------ labeled families


increments = st.lists(
    st.tuples(st.sampled_from(FAMILIES), st.sampled_from(TENANTS),
              st.integers(1, 5)),
    max_size=40)


@settings(max_examples=100, deadline=None)
@given(before=increments, during=increments)
def test_labeled_family_reads_like_the_double_increment_spelling(before,
                                                                 during):
    sim = Simulator()
    registry = MetricsRegistry(sim, namespace="rest")
    store = SeriesStore()
    scraper = MetricsScraper(sim, store)
    scraper.add_registry(registry, service="rest")
    #: what ``snapshot()`` returned when every fact was counted twice,
    #: under an aggregate name and under a brace-spelled twin
    oracle = {}

    def apply(batch):
        for family, tenant, amount in batch:
            registry.counter(family, tenant=tenant).increment(amount)
            for key in (family, f"{family}{{tenant={tenant}}}"):
                oracle[key] = oracle.get(key, 0.0) + amount

    apply(before)
    sim.run(until=10.0)
    scraper.scrape_once()
    totals_then = {family: oracle.get(family, 0.0) for family in FAMILIES}
    apply(during)
    sim.run(until=20.0)
    scraper.scrape_once()

    snapshot = registry.snapshot()
    assert snapshot == oracle
    for family in FAMILIES:
        children = [value for key, value in snapshot.items()
                    if key.startswith(family + "{")]
        assert snapshot.get(family, 0.0) == sum(children)
        # the store holds the children, not the total: the registry's
        # labels select them all, a tenant label isolates one
        grown = [s.delta(10.0, 20.0)
                 for s in store.query(family, service="rest")]
        assert sum(grown) == oracle.get(family, 0.0) - totals_then[family]
        for tenant in TENANTS:
            child = f"{family}{{tenant={tenant}}}"
            matched = store.query(family, tenant=tenant)
            assert len(matched) == (1 if child in oracle else 0)
            for series in matched:
                assert series.labels == {"service": "rest", "tenant": tenant}
                assert series.latest()[1] == oracle[child]


def test_a_family_is_labeled_or_it_is_not():
    registry = MetricsRegistry(Simulator(), namespace="svc")
    registry.counter("requests", tenant="org-a")
    registry.gauge("depth")
    registry.histogram("dur", buckets=(1.0,))
    with pytest.raises(ValueError, match="svc.requests"):
        registry.counter("requests")
    with pytest.raises(ValueError):
        registry.gauge("depth", shard="0")
    with pytest.raises(ValueError):
        registry.callback_gauge("depth", lambda: 1, shard="0")
    with pytest.raises(ValueError):
        registry.histogram("dur", tenant="org-a")
    # the refused asks created nothing
    assert set(registry.snapshot()) >= {"requests", "requests{tenant=org-a}",
                                        "depth"}
    assert "depth{shard=0}" not in registry.snapshot()


def test_labeled_histogram_total_is_the_merged_distribution():
    registry = MetricsRegistry(Simulator())
    for tenant, seen in (("a", (0.5, 0.7)), ("b", (3.0,))):
        for value in seen:
            registry.histogram("dur", buckets=(1.0, 5.0),
                               tenant=tenant).observe(value)
    snapshot = registry.snapshot()
    assert snapshot["dur.count"] == 3
    assert snapshot["dur{tenant=a}.count"] == 2
    assert snapshot["dur.mean"] == pytest.approx(4.2 / 3)
    assert snapshot["dur.p99"] <= 3.0 < snapshot["dur.p99"] + 1.0


# ------------------------------------------------- windowed percentiles


BOUNDS = (1.0, 2.0, 5.0, 10.0)
observations = st.lists(st.floats(0.0, 20.0), max_size=40)


@settings(max_examples=200, deadline=None)
@given(before=observations, during=observations,
       q=st.sampled_from((0.0, 50.0, 95.0, 99.0, 100.0)))
def test_window_quantile_brackets_the_exact_percentile(before, during, q):
    sim = Simulator()
    registry = MetricsRegistry(sim)
    hist = registry.histogram("dur", buckets=BOUNDS)
    store = SeriesStore()
    scraper = MetricsScraper(sim, store)
    scraper.add_registry(registry, service="w")
    for value in before:
        hist.observe(value)
    sim.run(until=10.0)
    scraper.scrape_once()
    for value in during:
        hist.observe(value)
    sim.run(until=20.0)
    scraper.scrape_once()

    estimate = window_quantile(store, "dur", q, 10.0, 20.0, service="w")
    if not during:
        assert estimate is None     # an empty window has no percentile
        return
    # the exact (nearest-rank) percentile of what the window observed
    ordered = sorted(during)
    rank = max(1, math.ceil((q / 100.0) * len(ordered)))
    exact = ordered[rank - 1]
    owner = bisect_left(BOUNDS, exact)
    if owner == len(BOUNDS):
        # the overflow bucket has no upper edge: it answers its lower
        assert estimate == BOUNDS[-1] < exact
    else:
        lower = BOUNDS[owner - 1] if owner else 0.0
        assert lower <= estimate <= BOUNDS[owner]


# ------------------------------------------------- one kind of source


def _series_after_a_minute(first, second):
    evop = Evop(EvopConfig(truth_days=2, storm_day=1, seed=3)).bootstrap()
    getattr(evop, first)()
    getattr(evop, second)()
    evop.run_for(60.0)
    return {(s.name, tuple(sorted(s.labels.items())))
            for s in evop.telemetry.store.all_series()}


def test_telemetry_and_dataplane_enable_in_either_order():
    one = _series_after_a_minute("enable_telemetry", "enable_dataplane")
    other = _series_after_a_minute("enable_dataplane", "enable_telemetry")
    assert one == other
    assert ("dataplane.consumer.lag", (("service", "dataplane"),)) in one
    assert ("sched.queue.depth", (("priority", "batch"), ("service", "sched"),
                                  ("shard", "0"))) in one
    # neither method asks whether the other ran
    assert "self.telemetry" not in inspect.getsource(Evop.enable_dataplane)
    assert not re.search(r"self\.dataplane\b",
                         inspect.getsource(Evop.enable_telemetry))


@pytest.mark.skipif(not HAVE_NUMPY, reason="portal_storm needs NumPy")
def test_portal_storm_scrapes_raw_signals_only():
    from benchmarks.e2e.workloads import portal_storm
    ctx = portal_storm.build(1, 0.01)
    portal_storm.drive(ctx)
    names = ctx.evop.telemetry.store.names()
    assert "submit" in names and "request.duration.bucket" in names
    derived = (".mean", ".peak", ".p50", ".p95", ".p99", ".count")
    assert [n for n in names
            if n.endswith(derived) or "{" in n or ".tenant." in n] == []


# --------------------------------------------- over the published API


def _instance(sim, instance_id):
    image = MachineImage(image_id="img-0", name="svc", kind=ImageKind.GENERIC)
    inst = Instance(sim, instance_id, "openstack", image,
                    Flavor("f", 2, 2048, 20))
    inst._mark_running()
    return inst


def _call(sim, server, request):
    signal = server.handle(request)
    sim.run(until=sim.now + 5.0)
    return signal.value


@pytest.fixture()
def observed():
    """``(sim, server)``: the observability API over a plane that has
    scraped three ``org-a`` requests and two unnamed ones to ``svc``."""
    sim = Simulator()
    api = RestApi("svc")
    api.get("/ping", lambda request, params: {"pong": True})
    svc = RestServer(sim, api, _instance(sim, "svc-0"))
    plane = TelemetryPlane(sim)
    plane.watch_registry(obs_of(sim).api_metrics, service="rest")
    server = RestServer(
        sim, build_observability_api(sim, plane, obs_of(sim).tracer),
        _instance(sim, "obs-0"))
    for headers in ({TENANT_HEADER: "org-a"},) * 3 + ({},) * 2:
        assert _call(sim, svc, HttpRequest("GET", "/v1/ping",
                                           headers=headers)).status == 200
    plane.scraper.scrape_once()
    return sim, server


def test_a_tenant_label_selects_that_tenants_series(observed):
    sim, server = observed
    path = "/v1/observability/metrics/svc.requests"
    mine = _call(sim, server, HttpRequest("GET", path,
                                          query={"tenant": "org-a"}))
    assert mine.status == 200
    assert [(s["labels"], s["points"][-1][1]) for s in mine.body["series"]] \
        == [({"service": "rest", "tenant": "org-a"}, 3.0)]
    # the api's total is every child the registry's own label selects
    everyone = _call(sim, server, HttpRequest("GET", path,
                                              query={"service": "rest"}))
    assert sorted((s["labels"]["tenant"], s["points"][-1][1])
                  for s in everyone.body["series"]) \
        == [("default", 2.0), ("org-a", 3.0)]


@pytest.mark.parametrize("key", ["name", "self", "labels"])
def test_a_label_key_cannot_collide_with_a_parameter(observed, key):
    sim, server = observed
    reply = _call(sim, server, HttpRequest(
        "GET", "/v1/observability/metrics/svc.requests", query={key: "x"}))
    assert reply.status == 404
    assert reply.body["title"] == "no such metric"
    assert reply.body["retryable"] is False
