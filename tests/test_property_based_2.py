"""Second round of property-based tests: QC, weather, catalog, sessions."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import AssetCatalog, AssetOrigin, BoundingBox, quality_control
from repro.data.weather import WeatherGenerator
from repro.hydrology import TimeSeries
from repro.sim import RandomStreams, Simulator

level_values = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=10.0),
              st.just(math.nan),
              st.floats(min_value=-50.0, max_value=500.0)),
    min_size=5, max_size=80)


@settings(max_examples=40, deadline=None)
@given(level_values)
def test_qc_output_always_clean_and_same_length(values):
    ts = TimeSeries(0, 900, values, units="m", name="level")
    cleaned, report = quality_control(ts, "river_level")
    assert len(cleaned) == len(ts)
    assert cleaned.gap_count() == 0
    assert report.total_samples == len(ts)
    # flags reference valid sample indices
    assert all(0 <= f.index < len(ts) for f in report.flags)
    # out-of-range values never survive into the cleaned series
    assert all(-50.0 <= v <= 500.0 for v in cleaned)


@settings(max_examples=40, deadline=None)
@given(level_values)
def test_qc_flag_counts_are_consistent(values):
    ts = TimeSeries(0, 900, values, units="m", name="level")
    _cleaned, report = quality_control(ts, "river_level")
    by_reason = sum(report.count(r) for r in
                    ("gap", "out-of-range", "spike", "flatline"))
    assert by_reason == report.count()
    assert 0.0 <= report.flagged_fraction() <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**30),
       st.integers(min_value=24, max_value=24 * 20))
def test_weather_rainfall_always_physical(seed, hours):
    generator = WeatherGenerator(RandomStreams(seed))
    rain = generator.rainfall(hours)
    assert len(rain) == hours
    assert all(v >= 0.0 for v in rain)
    assert all(not math.isnan(v) for v in rain)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_weather_temperature_bounded(seed):
    generator = WeatherGenerator(RandomStreams(seed))
    temps = generator.temperature(24 * 30)
    # UK-ish climate: winters above deep-freeze, summers below heatwave+
    assert all(-20.0 < v < 45.0 for v in temps)


coords = st.tuples(st.floats(min_value=-89.0, max_value=89.0),
                   st.floats(min_value=-179.0, max_value=179.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(coords, min_size=1, max_size=60), coords, coords)
def test_catalog_bbox_is_exact_partition(points, corner_a, corner_b):
    catalog = AssetCatalog()
    for i, (lat, lon) in enumerate(points):
        catalog.add(f"a{i}", "dataset", AssetOrigin.EXTERNAL, lat, lon)
    south, north = sorted((corner_a[0], corner_b[0]))
    west, east = sorted((corner_a[1], corner_b[1]))
    bbox = BoundingBox(south=south, west=west, north=north, east=east)
    inside = catalog.in_bbox(bbox)
    inside_ids = {a.asset_id for a in inside}
    for asset in catalog.all():
        manually = (south <= asset.latitude <= north
                    and west <= asset.longitude <= east)
        assert (asset.asset_id in inside_ids) == manually


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["assign_a", "assign_b", "unassign", "end"]),
                max_size=25))
def test_session_state_machine_invariants(operations):
    from repro.broker import SessionTable
    from repro.cloud import Flavor, ImageKind, Instance, MachineImage

    sim = Simulator()
    table = SessionTable(sim)
    session = table.create("prop-user")
    image = MachineImage(image_id="i", name="x", kind=ImageKind.GENERIC)
    a = Instance(sim, "a", "openstack", image, Flavor("f", 1, 1024, 10))
    b = Instance(sim, "b", "openstack", image, Flavor("f", 1, 1024, 10))
    a._mark_running()
    b._mark_running()

    ended = False
    for op in operations:
        if op == "assign_a" and not ended:
            session.assign(a)
        elif op == "assign_b" and not ended:
            session.assign(b)
        elif op == "unassign":
            session.unassign()
        elif op == "end":
            session.end()
            ended = True
        # invariants after every operation
        if session.state.value == "active":
            assert session.instance is not None
        else:
            assert session.instance is None
        assert table.active_count() + table.waiting_count() in (0, 1)
    # migrations only ever recorded between distinct instances
    for migration in session.migrations:
        assert migration["from"] != migration["to"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=10,
                max_size=100),
       st.floats(min_value=0.1, max_value=5.0))
def test_hydrograph_events_volume_bounded(values, threshold):
    from repro.hydrology import HydrographAnalysis
    analysis = HydrographAnalysis(TimeSeries(0, 3600, values))
    events = analysis.events_above(threshold)
    total = sum(v for v in values)
    assert sum(e.volume for e in events) <= total + 1e-9
    for event in events:
        assert event.peak > threshold
        assert event.start_time <= event.peak_time <= event.end_time


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                       st.floats(min_value=0, max_value=100),
                       min_size=1))
def test_workflow_cache_key_stable_under_dict_order(params):
    from repro.workflow import Workflow, WorkflowEngine, WorkflowNode

    def build():
        workflow = Workflow("keys")
        workflow.add(WorkflowNode("n", lambda p, u: sum(p.values()),
                                  params_used=tuple(sorted(params))))
        return workflow

    engine = WorkflowEngine()
    first = engine.run(build(), dict(params))
    # same parameters in reversed insertion order: cache key must match
    reversed_params = dict(reversed(list(params.items())))
    second = engine.run(build(), reversed_params)
    assert second.cache_hits() == 1
    assert second.outputs == first.outputs
