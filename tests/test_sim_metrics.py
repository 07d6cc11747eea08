"""Unit tests for counters, gauges, recorders and histograms."""

import math

import pytest

from repro.sim import Histogram, MetricsRegistry, Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def registry(sim):
    return MetricsRegistry(sim, namespace="test")


def test_counter_increments_and_rejects_decrease(registry):
    counter = registry.counter("requests")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.increment(-1)


def test_counter_is_memoised_by_name(registry):
    assert registry.counter("x") is registry.counter("x")


def test_gauge_time_weighted_mean(sim, registry):
    gauge = registry.gauge("instances")
    sim.schedule(0.0, gauge.set, 2)
    sim.schedule(10.0, gauge.set, 4)
    sim.run(until=20.0)
    # 2 for 10s then 4 for 10s -> mean 3
    assert gauge.time_weighted_mean() == pytest.approx(3.0)
    assert gauge.value == 4
    assert gauge.peak == 4


def test_gauge_add_adjusts_relative(sim, registry):
    gauge = registry.gauge("pool")
    gauge.set(5)
    gauge.add(-2)
    assert gauge.value == 3
    gauge.add(10)
    assert gauge.peak == 13


def test_gauge_mean_before_any_time_passes(sim, registry):
    gauge = registry.gauge("idle")
    gauge.set(7)
    assert gauge.time_weighted_mean() == 7


def test_recorder_statistics(sim, registry):
    rec = registry.recorder("latency")
    for value in (10, 20, 30, 40, 50):
        rec.record(value)
    assert rec.mean() == 30
    assert rec.percentile(0) == 10
    assert rec.percentile(100) == 50
    assert rec.percentile(50) == 30
    assert rec.percentile(25) == 20
    assert rec.maximum() == 50
    assert rec.count == 5


def test_recorder_percentile_interpolates(registry):
    rec = registry.recorder("lat")
    rec.record(0)
    rec.record(100)
    assert rec.percentile(25) == pytest.approx(25.0)


def test_recorder_empty_is_zero(registry):
    rec = registry.recorder("empty")
    assert rec.mean() == 0.0
    assert rec.percentile(95) == 0.0
    assert rec.maximum() == 0.0


def test_recorder_out_of_range_percentile(registry):
    rec = registry.recorder("lat")
    with pytest.raises(ValueError):
        rec.percentile(101)


def test_recorder_window_filters_by_time(sim, registry):
    rec = registry.recorder("lat")
    sim.schedule(1.0, rec.record, 1)
    sim.schedule(5.0, rec.record, 2)
    sim.schedule(9.0, rec.record, 3)
    sim.run()
    assert rec.window(0, 6) == [1, 2]
    assert rec.window(5, 10) == [2, 3]


def test_snapshot_includes_all_metric_kinds(sim, registry):
    registry.counter("hits").increment(3)
    registry.gauge("load").set(1.5)
    registry.recorder("lat").record(42)
    snap = registry.snapshot()
    assert snap["hits"] == 3
    assert snap["load"] == 1.5
    assert snap["lat.mean"] == 42
    assert snap["lat.count"] == 1


def test_snapshot_includes_recorder_percentiles(sim, registry):
    rec = registry.recorder("lat")
    for value in range(1, 101):
        rec.record(float(value))
    snap = registry.snapshot()
    assert snap["lat.p50"] == pytest.approx(50.5)
    assert snap["lat.p95"] == pytest.approx(95.05)
    assert snap["lat.p99"] == pytest.approx(99.01)


def test_sub_registry_namespacing(sim, registry):
    child = registry.sub("lb")
    assert child.counter("evictions").name == "test.lb.evictions"


def test_sub_registry_memoised_and_merged_into_snapshot(sim, registry):
    # handing the same namespace out twice must not orphan metrics
    first = registry.sub("lb")
    second = registry.sub("lb")
    assert first is second
    first.counter("evictions").increment(2)
    second.counter("evictions").increment(3)
    first.sub("pool").gauge("size").set(4)
    snap = registry.snapshot()
    assert snap["lb.evictions"] == 5
    assert snap["lb.pool.size"] == 4


def test_histogram_counts_mean_and_buckets():
    hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 8.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.total == pytest.approx(13.0)
    assert hist.mean() == pytest.approx(3.25)
    assert hist.bucket_counts() == [
        (1.0, 1), (2.0, 1), (4.0, 1), (math.inf, 1)]


def test_histogram_quantiles_bracket_the_truth():
    hist = Histogram("h", buckets=tuple(float(b) for b in range(1, 11)))
    for value in range(1, 1001):
        hist.observe(value / 100.0)  # 0.01 .. 10.00, uniform
    assert hist.quantile(0) == pytest.approx(0.01)
    assert hist.quantile(100) == pytest.approx(10.0)
    assert hist.quantile(50) == pytest.approx(5.0, abs=0.5)
    assert hist.quantile(95) == pytest.approx(9.5, abs=0.5)


def test_histogram_overflow_uses_observed_max():
    hist = Histogram("h", buckets=(1.0,))
    hist.observe(100.0)
    assert hist.quantile(99) <= 100.0
    assert hist.quantile(100) == pytest.approx(100.0)


def test_histogram_empty_and_validation():
    hist = Histogram("h", buckets=(1.0, 2.0))
    assert hist.quantile(50) == 0.0
    assert hist.mean() == 0.0
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        hist.quantile(101)


def test_registry_histogram_in_snapshot(sim, registry):
    hist = registry.histogram("rt")
    assert registry.histogram("rt") is hist
    for value in (0.5, 1.5, 3.0):
        hist.observe(value)
    snap = registry.snapshot()
    assert snap["rt.count"] == 3
    assert snap["rt.mean"] == pytest.approx(5.0 / 3)
    assert 0.0 < snap["rt.p50"] <= 2.0
