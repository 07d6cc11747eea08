"""Telemetry-plane tests: series store, scraper, SLOs and alerting.

Units cover the bisect-backed :class:`Series` windowed math (the delta
baseline rules in particular), the bounded :class:`SeriesStore`, the
scraper's resolved-series fast path, burn-rate alert transitions, and
the event log's pinned truncation marker.  One integration test drives
a real deployment with ``enable_telemetry`` and checks the default SLO
wiring end to end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Evop, EvopConfig
from repro.obs import (
    SLO,
    AlertManager,
    EventLog,
    MetricsScraper,
    Series,
    SeriesStore,
    TelemetryPlane,
    obs_of,
    red_view,
)
from repro.obs import events, telemetry
from repro.obs.telemetry import format_bound
from repro.sim import Simulator
from repro.sim.metrics import DEFAULT_BUCKETS, MetricsRegistry


# ---------------------------------------------------------------- series


def _series(points):
    s = Series("s", {})
    for t, v in points:
        s.append(t, v)
    return s


def test_series_windowed_accessors():
    s = _series([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)])
    assert len(s) == 3
    assert s.latest() == (3.0, 30.0)
    assert s.points(1.5, 3.0) == [(2.0, 20.0), (3.0, 30.0)]
    assert s.points() == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
    assert s.prior(2.5) == (2.0, 20.0)
    assert s.prior(0.5) is None
    assert s.times(1.5, 2.5) == [2.0]
    assert s.mean(1.0, 2.0) == pytest.approx(15.0)


def test_series_delta_baselines_at_zero_before_first_trim():
    # a counter only appears in the store once first incremented, so
    # growth before its first sample belongs to the window
    s = _series([(10.0, 5.0), (20.0, 8.0)])
    assert s.delta(0.0, 30.0) == pytest.approx(8.0)
    # with a sample at-or-before the window start, that is the baseline
    assert s.delta(10.0, 30.0) == pytest.approx(3.0)
    # no data at or before the window end: unknown, not zero
    assert s.delta(0.0, 5.0) is None
    # counter reset clamps at the post-reset value
    s.append(30.0, 1.0)
    assert s.delta(20.0, 30.0) == pytest.approx(0.0)


def test_series_trim_switches_delta_baseline(monkeypatch):
    monkeypatch.setattr(telemetry, "MAX_POINTS", 3)
    s = _series([(float(i), float(i)) for i in range(6)])
    # amortised trim: the buffer halves once it reaches 2x max_points
    assert len(s) == 3 and s.points()[0] == (3.0, 3.0)
    # after a trim the earliest retained value is the baseline — the
    # pre-trim growth is gone and must not be invented as window growth
    assert s.delta(0.0, 5.0) == pytest.approx(5.0 - 3.0)


def test_series_store_bounds_and_query(monkeypatch):
    monkeypatch.setattr(telemetry, "MAX_SERIES", 2)
    store = SeriesStore()
    store.record("lat", 1.0, 0.5, service="a", le="1")
    store.record("lat", 1.0, 0.7, service="b", le="1")
    assert store.record("other", 1.0, 1.0) is None
    assert store.dropped_series == 1
    # label-superset query, exact get
    assert len(store.query("lat")) == 2
    assert [s.labels["service"] for s in store.query("lat", service="a")] \
        == ["a"]
    assert store.get("lat", service="a", le="1").latest() == (1.0, 0.5)
    assert store.get("lat", service="a") is None
    assert store.names() == ["lat"]


def test_series_store_query_cache_sees_new_series():
    store = SeriesStore()
    store.record("m", 1.0, 1.0, service="a")
    assert len(store.query("m")) == 1
    store.record("m", 2.0, 1.0, service="b")  # must invalidate the memo
    assert len(store.query("m")) == 2


# ---------------------------------------------------------------- scraper


def test_scraper_samples_registries_probes_and_buckets():
    sim = Simulator()
    store = SeriesStore()
    scraper = MetricsScraper(sim, store, interval=5.0)
    registry = MetricsRegistry(sim, namespace="svc")
    registry.counter("requests").increment(3)
    registry.histogram("dur").observe(0.5)
    registry.callback_gauge("depth", lambda: 7)
    scraper.add_registry(registry, service="svc")
    scraper.start()
    sim.schedule(21.0, scraper.stop)
    sim.run()

    assert scraper.scrapes == 4 and not scraper.running
    assert store.get("requests", service="svc").latest()[1] == 3.0
    assert store.get("depth", service="svc").latest() == (20.0, 7.0)
    # cumulative bucket series carry the le label; +Inf sees every value
    buckets = store.query("dur.bucket", service="svc")
    assert sorted(s.labels["le"] for s in buckets) == sorted(
        [format_bound(b) for b in DEFAULT_BUCKETS] + ["+Inf"])
    assert store.get("dur.bucket", service="svc", le="+Inf").latest()[1] == 1.0
    # the scraper meters itself into the same store
    assert store.get("scrape.samples", service="telemetry") is not None
    assert scraper.host_seconds >= 0.0
    assert scraper.lag() == pytest.approx(sim.now - 20.0)


def test_scraper_skips_unchanged_bucket_points():
    sim = Simulator()
    store = SeriesStore()
    scraper = MetricsScraper(sim, store, interval=1.0)
    registry = MetricsRegistry(sim)
    hist = registry.histogram("dur")
    hist.observe(0.5)
    scraper.add_registry(registry)

    scraper.scrape_once()
    sim.schedule(1.0, scraper.scrape_once)
    sim.schedule(2.0, lambda: (hist.observe(0.2), scraper.scrape_once()))
    sim.run()

    bucket = store.get("dur.bucket", le="1")
    # idle tick appended nothing; delta still reads through the gap
    assert bucket.points() == [(0.0, 1.0), (2.0, 2.0)]
    assert bucket.delta(0.5, 2.0) == pytest.approx(1.0)


def test_scraper_keeps_same_named_metrics_of_two_registries_apart():
    sim = Simulator()
    store = SeriesStore()
    scraper = MetricsScraper(sim, store, interval=1.0)
    for service, hits, seen in (("a", 2, 0.5), ("b", 5, 3.0)):
        registry = MetricsRegistry(sim)
        registry.counter("requests").increment(hits)
        registry.histogram("dur").observe(seen)
        scraper.add_registry(registry, service=service)
    probed = MetricsRegistry(sim)
    probed.callback_gauge("requests", lambda: 9)
    scraper.add_registry(probed, service="probe")

    # first tick resolves every series, the second takes the tables
    for _ in range(2):
        scraper.scrape_once()

    assert [store.get("requests", service=s).points() for s in "ab"] == [
        [(0.0, 2.0), (0.0, 2.0)], [(0.0, 5.0), (0.0, 5.0)]]
    assert store.get("requests", service="probe").latest() == (0.0, 9.0)
    assert store.get("dur.bucket", service="a", le="1").latest()[1] == 1.0
    assert store.get("dur.bucket", service="b", le="1").latest()[1] == 0.0
    assert len(store.get("scrape.samples", service="telemetry")) == 2


def test_red_view_over_scraped_series():
    store = SeriesStore()
    for t in (0.0, 30.0, 60.0):
        store.record("requests", t, t, service="x")
        store.record("errors", t, t / 10.0, service="x")
        # every observation of the window lands in (1, 3]
        for le, seen in (("1", 0.0), ("3", t), ("+Inf", t)):
            store.record("dur.bucket", t, seen, service="x", le=le)
    view = red_view(store, 60.0, window=60.0, duration="dur", service="x")
    assert view["rate"] == pytest.approx(1.0)
    assert view["error_ratio"] == pytest.approx(0.1)
    assert view["duration_p95"] == pytest.approx(1.0 + 0.95 * 2.0)
    empty = red_view(store, 60.0, service="nowhere")
    assert empty["rate"] is None and empty["duration_p95"] is None


# ---------------------------------------------------------------- SLOs


def _availability_store(error_ratio, horizon=3600.0, step=15.0):
    store = SeriesStore()
    t, total, errors = 0.0, 0.0, 0.0
    while t <= horizon:
        total += step
        errors += step * error_ratio
        store.record("attempts", t, total, service="w")
        store.record("attempt.failures", t, errors, service="w")
        t += step
    return store


def test_availability_sli_and_burn_rate():
    slo = SLO.availability("avail", total="attempts",
                           errors="attempt.failures", target=0.999,
                           service="w")
    store = _availability_store(0.01)
    assert slo.sli(store, 3600.0, 300.0) == pytest.approx(0.99)
    # 1% failures against a 0.1% budget burns at 10x
    assert slo.burn_rate(store, 3600.0, 300.0) == pytest.approx(10.0)
    assert slo.sli(SeriesStore(), 3600.0, 300.0) is None


def test_latency_sli_counts_fraction_under_owning_bound():
    store = SeriesStore()
    for t, under, total in ((0.0, 0.0, 0.0), (60.0, 90.0, 100.0)):
        store.record("dur.bucket", t, under, le="5", service="w")
        store.record("dur.bucket", t, total, le="+Inf", service="w")
    slo = SLO.latency("lat", metric="dur", threshold=5.0, target=0.95,
                      service="w")
    assert slo.sli(store, 60.0, 60.0) == pytest.approx(0.9)


def test_latency_sli_sums_sources_and_follows_new_bucket_series():
    store = SeriesStore()

    def observe(instance, t, under1, under5, under10, total):
        for le, value in (("1", under1), ("5", under5), ("10", under10),
                          ("+Inf", total)):
            store.record("dur.bucket", t, value, le=le, service="w",
                         instance=instance)

    observe("i1", 0.0, 0, 0, 0, 0)
    observe("i1", 60.0, 40, 90, 95, 100)
    # threshold 4 is owned by the "5" bound; "1" and "10" stay out of it
    slo = SLO.latency("lat", metric="dur", threshold=4.0, target=0.95,
                      service="w")
    assert slo.sli(store, 60.0, 60.0) == pytest.approx(0.9)
    # a second source appearing later joins both sums
    observe("i2", 30.0, 0, 0, 0, 0)
    observe("i2", 60.0, 10, 50, 80, 100)
    assert slo.sli(store, 60.0, 60.0) == pytest.approx(140.0 / 200.0)
    # past the last finite bound only +Inf owns the threshold: nothing
    # can be shown good
    beyond = SLO.latency("lat", metric="dur", threshold=11.0, target=0.95,
                         service="w")
    assert beyond.sli(store, 60.0, 60.0) == 0.0
    # no +Inf sample in reach: no verdict
    assert slo.sli(store, -1.0, 60.0) is None


def _freshness_by_cursor_walk(times, start, end, max_age):
    """The freshness fraction of one series, walked sample by sample."""
    stale = 0.0
    cursor = max(start, times[0])
    for t in times:
        if t > cursor:
            stale += max(0.0, (t - cursor) - max_age)
        cursor = max(cursor, t)
    if end > cursor:
        stale += max(0.0, (end - cursor) - max_age)
    span = end - max(start, times[0])
    return 1.0 if span <= 0 else max(0.0, 1.0 - stale / span)


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.floats(0.0, 120.0), min_size=1, max_size=30),
       start=st.floats(0.0, 400.0), window=st.floats(0.0, 600.0),
       max_age=st.one_of(st.integers(0, 90), st.floats(0.0, 90.0)))
def test_freshness_sli_equals_the_cursor_walk(gaps, start, window, max_age):
    store = SeriesStore()
    t = 0.0
    for gap in gaps:
        t += gap
        store.record("beat", t, 1.0, service="w")
    series = store.get("beat", service="w")
    end = start + window
    start = end - window    # the window as ``sli`` will cut it
    slo = SLO.freshness("fresh", series="beat", max_age=max_age, target=0.99,
                        service="w")

    times = series.times(start, end)
    prior = series.prior(start)
    if prior is not None:
        times.insert(0, prior[0])
    expected = (_freshness_by_cursor_walk(times, start, end, max_age)
                if times else None)
    assert slo.sli(store, end, window) == expected


def test_freshness_sli_measures_gap_beyond_max_age():
    store = SeriesStore()
    for t in (0.0, 10.0, 100.0):
        store.record("beat", t, 1.0, service="w")
    slo = SLO.freshness("fresh", series="beat", max_age=30.0, target=0.99,
                        service="w")
    # one 90s gap, 60s of it beyond the allowance, over a 100s window
    assert slo.sli(store, 100.0, 100.0) == pytest.approx(1.0 - 60.0 / 100.0)


# ---------------------------------------------------------------- alerts


def test_alert_rule_fires_and_resolves_through_manager():
    sim = Simulator()
    store = _availability_store(0.05)  # 50x burn: over any factor
    pages = []
    manager = AlertManager(sim, store, notifier=pages.append)
    slo = SLO.availability("avail", total="attempts",
                           errors="attempt.failures", target=0.999,
                           service="w")
    rule = manager.add(slo, windows=((300.0, 60.0, 14.4),))

    fired = manager.evaluate(now=3600.0)
    assert rule.firing and fired[0]["state"] == "firing"
    assert fired[0]["slo"] == "avail" and fired[0]["burn_rate"] > 14.4
    assert manager.evaluate(now=3610.0) == []  # idempotent while firing
    assert manager.firing() == [{"alert": "avail", "since": 3600.0}]

    # errors stop: both windows drain below the factor and it resolves
    flat = store.get("attempt.failures", service="w").latest()[1]
    for t in range(3615, 8000, 15):
        store.record("attempts", float(t), float(t), service="w")
        store.record("attempt.failures", float(t), flat, service="w")
    resolved = manager.evaluate(now=7995.0)
    assert not rule.firing and resolved[0]["state"] == "resolved"
    assert [p["state"] for p in pages] == ["firing", "resolved"]
    kinds = [e.kind for e in obs_of(sim).events.events(kind="obs.alert")]
    assert kinds == ["obs.alert.firing", "obs.alert.resolved"]
    assert 0.0 <= manager.health_score(7995.0) <= 100.0


def test_alert_rule_needs_both_windows_burning():
    # long window is hot from history, short window is clean: no page
    store = _availability_store(0.05, horizon=3300.0)
    flat = store.get("attempt.failures", service="w").latest()[1]
    for t in range(3315, 3615, 15):
        store.record("attempts", float(t), float(t), service="w")
        store.record("attempt.failures", float(t), flat, service="w")
    slo = SLO.availability("avail", total="attempts",
                          errors="attempt.failures", target=0.999,
                          service="w")
    manager = AlertManager(Simulator(), store)
    rule = manager.add(slo, windows=((1800.0, 300.0, 6.0),))
    assert manager.evaluate(now=3600.0) == [] and not rule.firing
    status = rule.status(store, 3600.0)
    assert status["slo"] == "avail" and status["firing"] is False
    assert status["burn_rates"]["1800s"] > 6.0 > status["burn_rates"]["300s"]


def test_plane_evaluates_on_its_own_cadence():
    sim = Simulator()
    plane = TelemetryPlane(sim, interval=5.0)
    assert plane.evaluation_interval == 30.0  # default: max(interval, 30)
    evaluations = []
    plane.alerts.evaluate = lambda now: evaluations.append(now)
    plane.start()
    sim.schedule(61.0, plane.stop)
    sim.run()
    # 12 scrapes but only the 30s-aligned ticks ran the burn-rate math
    assert plane.scraper.scrapes == 12
    assert evaluations == [5.0, 35.0]


def test_plane_snapshot_and_slo_status():
    sim = Simulator()
    plane = TelemetryPlane(sim, interval=5.0)
    registry = MetricsRegistry(sim)
    registry.counter("attempts").increment()
    plane.watch_registry(registry, service="w")
    plane.add_slo(SLO.availability("avail", total="attempts",
                                   errors="attempt.failures", target=0.99,
                                   service="w"))
    plane.start()
    sim.schedule(16.0, plane.stop)
    sim.run()
    snap = plane.snapshot()
    assert snap["scrapes"] == 3
    assert snap["series"] >= 1
    assert snap["alerts_firing"] == []
    assert [s["slo"] for s in plane.slo_status()] == ["avail"]


# ------------------------------------------------------- event-log marker


def test_event_log_pins_truncation_marker_at_horizon(monkeypatch):
    monkeypatch.setattr(events, "MAX_EVENTS", 2)
    sim = Simulator()
    log = EventLog(sim)
    sim.schedule(1.0, lambda: log.emit("a.one"))
    sim.schedule(2.0, lambda: log.emit("a.two"))
    sim.schedule(3.0, lambda: log.emit("a.three"))
    sim.schedule(4.0, lambda: log.emit("a.four"))
    sim.run()
    # the marker leads unfiltered queries, stamped where the gap begins,
    # and rides outside the ring and both counters
    assert log.dropped == 2 and log.total_emitted == 4 and len(log) == 2
    kinds = [e.kind for e in log.events()]
    assert kinds == ["events.dropped", "a.three", "a.four"]
    marker = log.drop_marker
    assert marker.t == 1.0 and marker.fields["dropped"] == 2
    assert [e.kind for e in log.events(kind="events")] == ["events.dropped"]
    # filters apply to the marker like any other event
    assert [e.kind for e in log.events(since=2.5)] == ["a.three", "a.four"]
    assert EventLog(sim).drop_marker is None


# ------------------------------------------------------------ integration


def test_enable_telemetry_wires_default_slos_and_health_counters():
    config = EvopConfig(truth_days=2, storm_day=1, private_vcpus=8,
                        min_replicas=2, sessions_per_replica=4, seed=3)
    evop = Evop(config)
    evop.bootstrap()
    plane = evop.enable_telemetry(interval=5.0)
    assert plane is evop.telemetry and plane.scraper.running

    evop.run_for(300.0)
    names = {rule.slo.name for rule in plane.alerts.rules}
    assert {"wps-attempt-availability", "replica-health",
            "wps-request-latency", "telemetry-freshness"} <= names
    # the health monitor feeds the replica-health SLI every evaluation
    checks = plane.store.get("health.checks", service="broker")
    assert checks is not None and checks.latest()[1] > 0
    assert evop.broker_metrics.counter("health.faults").value == 0
    # scraped series cover the fabric: scheduler, broker, self-meter
    assert plane.store.query("sched.queue.depth")
    assert plane.store.get("scrape.samples", service="telemetry")
    snap = plane.snapshot()
    assert snap["health_score"] == 100.0 and snap["lag"] <= 5.0
