"""Unit tests for the data layer: DEM, weather, sensors, webcams, catalog."""

import hashlib
import math

import pytest

from repro.cloud import BlobStore
from repro.data import (
    AssetCatalog,
    AssetOrigin,
    BoundingBox,
    DataWarehouse,
    DemGrid,
    DesignStorm,
    STUDY_CATCHMENTS,
    SensorNetwork,
    WeatherGenerator,
    WebcamArchive,
    topographic_index_distribution,
)
from repro.hydrology import TimeSeries
from repro.services import SensorDescription
from repro.sim import RandomStreams, Simulator


@pytest.fixture()
def sim():
    return Simulator()


# -- DEM ------------------------------------------------------------------------

# DEM analysis is the one data-layer feature that requires NumPy
from repro.data import dem as dem_module

needs_numpy = pytest.mark.skipif(not dem_module.HAVE_NUMPY,
                                 reason="NumPy absent")


@needs_numpy
def test_synthetic_valley_shape():
    dem = DemGrid.synthetic_valley(rows=30, cols=30, seed=3)
    assert dem.z.shape == (30, 30)
    # the valley drains to the low edge: outlet near the bottom of the grid
    outlet_row, _outlet_col = dem.outlet()
    assert outlet_row > 15


@needs_numpy
def test_flow_accumulation_conserves_cells():
    dem = DemGrid.synthetic_valley(rows=20, cols=20, seed=1)
    acc = dem.flow_accumulation()
    assert acc.min() >= 1.0
    # the maximum accumulation collects a large share of the grid
    assert acc.max() > 0.2 * dem.rows * dem.cols


@needs_numpy
def test_topographic_index_higher_in_valley_bottom():
    dem = DemGrid.synthetic_valley(rows=30, cols=30, seed=2)
    ti = dem.topographic_index()
    acc = dem.flow_accumulation()
    high_acc = ti[acc > acc.mean() * 4]
    low_acc = ti[acc <= 1.5]
    assert high_acc.mean() > low_acc.mean()


@needs_numpy
def test_ti_distribution_normalised_and_ordered():
    dem = DemGrid.synthetic_valley(rows=25, cols=25, seed=4)
    dist = topographic_index_distribution(dem, classes=12)
    total = sum(f for _t, f in dist)
    assert total == pytest.approx(1.0)
    tis = [t for t, _f in dist]
    assert tis == sorted(tis)
    with pytest.raises(ValueError):
        topographic_index_distribution(dem, classes=1)


@needs_numpy
def test_dem_feeds_topmodel():
    from repro.hydrology import Topmodel, TopmodelParameters
    dem = DemGrid.synthetic_valley(rows=20, cols=20, seed=5)
    dist = topographic_index_distribution(dem, classes=10)
    model = Topmodel(dist)
    rain = TimeSeries(0, 3600, [0.2] * 12 + [8, 10, 6] + [0.1] * 48)
    result = model.run(rain, parameters=TopmodelParameters(q0_mm_h=0.3))
    assert result.flow.total() > 0


@needs_numpy
def test_dem_validation():
    import numpy as np
    with pytest.raises(ValueError):
        DemGrid(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        DemGrid(np.zeros((5, 5)), cell_size_m=0)


# -- weather ----------------------------------------------------------------------


def test_rainfall_is_deterministic_per_seed():
    a = WeatherGenerator(RandomStreams(7)).rainfall(100)
    b = WeatherGenerator(RandomStreams(7)).rainfall(100)
    assert a.values == b.values
    c = WeatherGenerator(RandomStreams(8)).rainfall(100)
    assert a.values != c.values


def test_rainfall_annual_total_close_to_target():
    generator = WeatherGenerator(RandomStreams(1), annual_rainfall_mm=1200.0)
    year = generator.rainfall(365 * 24)
    assert 800.0 < year.total() < 1700.0
    assert all(v >= 0 for v in year)


def test_rainfall_has_wet_and_dry_spells():
    series = WeatherGenerator(RandomStreams(2)).rainfall(24 * 30)
    wet = sum(1 for v in series if v > 0)
    assert 0 < wet < len(series)


def test_design_storm_profiles():
    storm = DesignStorm(start_hour=4, duration_hours=6, total_depth_mm=42.0)
    depths = storm.depths()
    assert len(depths) == 6
    assert sum(depths) == pytest.approx(42.0)
    front = DesignStorm(0, 6, 42.0, profile="front").depths()
    assert front[0] == max(front)
    with pytest.raises(ValueError):
        DesignStorm(0, 0, 10.0).depths()
    with pytest.raises(ValueError):
        DesignStorm(0, 3, 10.0, profile="square").depths()


def test_rainfall_with_storm_superimposes():
    storm = DesignStorm(start_hour=10, duration_hours=4, total_depth_mm=30.0)
    plain = WeatherGenerator(RandomStreams(3)).rainfall(48)
    stormy = WeatherGenerator(RandomStreams(3)).rainfall_with_storm(48, storm)
    added = sum(s - p for s, p in zip(stormy, plain))
    assert added == pytest.approx(30.0)


def test_temperature_seasonal_and_diurnal():
    generator = WeatherGenerator(RandomStreams(4))
    winter = generator.temperature(24 * 10, start_day_of_year=15)
    summer = generator.temperature(24 * 10, start_day_of_year=196)
    assert summer.mean() > winter.mean() + 5
    one_day = generator.temperature(24, start_day_of_year=180)
    assert one_day.values[14] > one_day.values[2]  # afternoon warmer than night


def test_daily_pet_positive_in_summer():
    generator = WeatherGenerator(RandomStreams(5))
    pet = generator.daily_pet(24 * 5, start_day_of_year=180)
    assert pet.total() > 0
    assert all(v >= 0 for v in pet)


# -- sensors -----------------------------------------------------------------------


def make_description(pid="morland-level-1", prop="river_level", units="m"):
    return SensorDescription(procedure_id=pid, observed_property=prop,
                             units=units, latitude=54.59, longitude=-2.61,
                             catchment="morland")


def test_sensor_feed_samples_truth(sim):
    network = SensorNetwork(sim)
    sensor = network.add_sensor(make_description(),
                                truth=lambda t: t / 3600.0,
                                sampling_interval=900.0)
    sensor.start_feed(until=3600.0)
    sim.run(until=4000.0)
    assert len(sensor.observations) == 4
    assert sensor.latest().value == pytest.approx(1.0)
    assert sensor.latest().units == "m"


def test_sensor_noise_is_deterministic(sim):
    network_a = SensorNetwork(sim, streams=RandomStreams(9))
    sensor_a = network_a.add_sensor(make_description(), truth=lambda t: 5.0,
                                    noise_std=0.2)
    value_a = sensor_a.observe_now().value
    sim2 = Simulator()
    network_b = SensorNetwork(sim2, streams=RandomStreams(9))
    sensor_b = network_b.add_sensor(make_description(), truth=lambda t: 5.0,
                                    noise_std=0.2)
    assert sensor_b.observe_now().value == value_a
    assert value_a != 5.0


def test_sensor_backfill_and_window(sim):
    network = SensorNetwork(sim)
    sensor = network.add_sensor(make_description(), truth=lambda t: 0.0)
    series = TimeSeries(0, 3600, [1.0, 2.0, 3.0])
    assert sensor.backfill(series) == 3
    window = sensor.window(3600.0, 7200.0)
    assert [obs.value for obs in window] == [2.0, 3.0]


def test_network_is_sos_source(sim):
    network = SensorNetwork(sim)
    network.add_sensor(make_description("b-sensor"), truth=lambda t: 1.0)
    network.add_sensor(make_description("a-sensor"), truth=lambda t: 2.0)
    assert network.procedures() == ["a-sensor", "b-sensor"]
    assert network.describe("a-sensor").catchment == "morland"
    network.sensor("a-sensor").observe_now()
    assert len(network.observations("a-sensor", 0.0, 1.0)) == 1
    assert network.by_catchment("morland")
    with pytest.raises(ValueError):
        network.add_sensor(make_description("a-sensor"), truth=lambda t: 0.0)


def test_duplicate_sensor_rejected(sim):
    network = SensorNetwork(sim)
    network.add_sensor(make_description(), truth=lambda t: 0.0)
    with pytest.raises(ValueError):
        network.add_sensor(make_description(), truth=lambda t: 0.0)


# -- webcams -----------------------------------------------------------------------


def test_webcam_capture_and_nearest(sim):
    cam = WebcamArchive(sim, "morland-cam-1", 54.59, -2.61, "morland")
    assert cam.nearest(0.0) is None
    cam.start_capture(interval=1800.0, until=7200.0,
                      tagger=lambda t: {"stage_m": t / 7200.0})
    sim.run(until=8000.0)
    assert len(cam) == 4
    frame = cam.nearest(3700.0)
    assert frame.time == 3600.0
    assert frame.tags["stage_m"] == pytest.approx(0.5)
    assert len(cam.window(1800.0, 5400.0)) == 3
    with pytest.raises(ValueError):
        cam.start_capture(interval=0)


# -- catalog -----------------------------------------------------------------------


def test_catalog_bbox_query():
    catalog = AssetCatalog()
    catalog.add("morland rain", "sensor-feed", AssetOrigin.IN_SITU,
                54.59, -2.61, catchment="morland")
    catalog.add("tarland rain", "sensor-feed", AssetOrigin.IN_SITU,
                57.12, -2.86, catchment="tarland")
    cumbria = BoundingBox(south=54.0, west=-3.5, north=55.0, east=-2.0)
    hits = catalog.in_bbox(cumbria)
    assert [a.name for a in hits] == ["morland rain"]


def test_catalog_filters():
    catalog = AssetCatalog()
    catalog.add("cam", "webcam", AssetOrigin.IN_SITU, 54.6, -2.6,
                catchment="morland")
    catalog.add("met rainfall", "dataset", AssetOrigin.EXTERNAL, 54.7, -2.7)
    assert len(catalog.by_kind("webcam")) == 1
    assert len(catalog.by_origin(AssetOrigin.EXTERNAL)) == 1
    assert len(catalog.by_catchment("morland")) == 1
    assert len(catalog) == 2
    asset = catalog.by_kind("webcam")[0]
    assert catalog.get(asset.asset_id) is asset
    assert catalog.remove(asset.asset_id)
    assert not catalog.remove(asset.asset_id)


def test_bbox_validation():
    with pytest.raises(ValueError):
        BoundingBox(south=55.0, west=0.0, north=54.0, east=1.0)


# -- catchments + warehouse -----------------------------------------------------------


def test_study_catchments_complete():
    assert set(STUDY_CATCHMENTS) == {"eden", "morland", "tarland", "machynlleth"}
    for catchment in STUDY_CATCHMENTS.values():
        assert catchment.area_km2 > 0
        dist = catchment.ti_distribution()
        assert sum(f for _t, f in dist) == pytest.approx(1.0)
        assert catchment.flood_threshold_m3s() > 0


def test_catchment_builds_runnable_model():
    morland = STUDY_CATCHMENTS["morland"]
    model = morland.topmodel()
    generator = morland.weather_generator(RandomStreams(6))
    storm = DesignStorm(start_hour=24, duration_hours=8, total_depth_mm=60.0)
    rain = generator.rainfall_with_storm(24 * 7, storm, start_day_of_year=330)
    from repro.hydrology import TopmodelParameters
    result = model.run(rain, parameters=TopmodelParameters(q0_mm_h=0.3))
    assert result.flow.maximum() > 0.3


def test_warehouse_roundtrip(sim):
    warehouse = DataWarehouse(BlobStore(sim))
    series = TimeSeries(0, 3600, [1.0, 2.0], units="mm/h", name="rain")
    warehouse.put_series("morland/rain-2012", series, provenance="gauge 7")
    assert warehouse.exists("morland/rain-2012")
    restored = warehouse.get_series("morland/rain-2012")
    assert restored.values == series.values
    assert restored.units == "mm/h"
    meta = warehouse.describe("morland/rain-2012")
    assert meta["provenance"] == "gauge 7"
    assert warehouse.list("morland/") == ["morland/rain-2012"]
    warehouse.delete("morland/rain-2012")
    assert not warehouse.exists("morland/rain-2012")


# -- warehouse deserialisation memo ---------------------------------------------


def test_get_series_memoises_by_etag(sim):
    warehouse = DataWarehouse(BlobStore(sim))
    series = TimeSeries(0, 3600, [1.0, 2.0, 3.0], units="mm", name="rain")
    warehouse.put_series("memo/rain", series)
    first = warehouse.get_series("memo/rain")
    second = warehouse.get_series("memo/rain")
    # identical object: no re-deserialisation on a repeat read
    assert second is first
    assert second.values == [1.0, 2.0, 3.0]


def test_get_series_memo_invalidated_by_overwrite(sim):
    warehouse = DataWarehouse(BlobStore(sim))
    warehouse.put_series("memo/rain", TimeSeries(0, 3600, [1.0, 2.0]))
    stale = warehouse.get_series("memo/rain")
    warehouse.put_series("memo/rain", TimeSeries(0, 3600, [9.0, 9.0]))
    fresh = warehouse.get_series("memo/rain")
    assert fresh is not stale
    assert fresh.values == [9.0, 9.0]


def test_get_series_memo_is_bounded(sim):
    warehouse = DataWarehouse(BlobStore(sim))
    for i in range(DataWarehouse.MEMO_ENTRIES + 10):
        warehouse.put_series(f"memo/{i}", TimeSeries(0, 3600, [float(i)] * 2))
        warehouse.get_series(f"memo/{i}")
    assert len(warehouse._memo) == DataWarehouse.MEMO_ENTRIES
    # evicted entries still read correctly (straight from the blob)
    assert warehouse.get_series("memo/0").values == [0.0, 0.0]


def test_etag_of_tracks_content(sim):
    warehouse = DataWarehouse(BlobStore(sim))
    warehouse.put_series("memo/rain", TimeSeries(0, 3600, [1.0, 2.0]))
    tag = warehouse.etag_of("memo/rain")
    assert warehouse.etag_of("memo/rain") == tag
    warehouse.put_series("memo/rain", TimeSeries(0, 3600, [3.0, 4.0]))
    assert warehouse.etag_of("memo/rain") != tag


def test_memo_and_etag_of_see_the_hash_of_the_stored_rendering(sim):
    """A blob's etag is derived on first read; both warehouse readers
    see the value ``put`` used to stamp eagerly."""
    store = BlobStore(sim)
    warehouse = DataWarehouse(store)
    warehouse.put_series("memo/rain", TimeSeries(0, 3600, [1.0, 2.0]))
    stored = store.container(DataWarehouse.CONTAINER).read("memo/rain")
    stamp = hashlib.sha256(repr(stored).encode()).hexdigest()[:16]
    series = warehouse.get_series("memo/rain")
    assert warehouse._memo["memo/rain"] == (stamp, series)
    assert warehouse.etag_of("memo/rain") == stamp


def test_delete_drops_memo_entry(sim):
    from repro.cloud.storage import BlobNotFound

    warehouse = DataWarehouse(BlobStore(sim))
    warehouse.put_series("memo/rain", TimeSeries(0, 3600, [1.0, 2.0]))
    warehouse.get_series("memo/rain")
    warehouse.delete("memo/rain")
    with pytest.raises(BlobNotFound):
        warehouse.get_series("memo/rain")
