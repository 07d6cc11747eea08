"""Unit tests for the Model Library and deployment paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    AwsCloud,
    BlobStore,
    Flavor,
    ImageKind,
    ImageStore,
    Instance,
    MultiCloud,
    OpenStackCloud,
)
from repro.core import Evop, EvopConfig
from repro.data import (
    MODEL_RUNNER,
    STUDY_CATCHMENTS,
    AccessDenied,
    AccessPolicy,
    DataWarehouse,
    GuardedWarehouse,
)
from repro.hydrology import TimeSeries
from repro.hydrology.scenarios import STANDARD_SCENARIOS
from repro.modellib import (
    CalibrationRecord,
    ModelDeployer,
    ModelKind,
    ModelLibrary,
    make_fuse_process,
    make_topmodel_process,
    make_water_quality_process,
)
from repro.perf import canonical_json
from repro.services import HttpRequest, Network
from repro.sim import RandomStreams, Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def library():
    return ModelLibrary(ImageStore())


@pytest.fixture()
def morland():
    return STUDY_CATCHMENTS["morland"]


def test_publish_streamlined_bakes_bundle(library, morland):
    entry = library.publish_streamlined(
        "topmodel-morland", morland, make_topmodel_process,
        calibration=CalibrationRecord("morland", "NSE", 0.82, {"m": 15}, 500),
        dataset_ids=("morland/rain",))
    assert entry.kind == ModelKind.STREAMLINED
    image = library.image_for("topmodel-morland")
    assert image.kind == ImageKind.STREAMLINED
    assert "topmodel-morland" in image.bundled_models
    assert image.run_speed_factor == ModelLibrary.STREAMLINED_SPEED
    assert entry.calibration.is_behavioural()


def test_publish_experimental_authors_recipe(library, morland):
    entry = library.publish_experimental(
        "fuse-exp", morland, make_fuse_process, install_minutes=10.0)
    assert entry.kind == ModelKind.EXPERIMENTAL
    assert entry.recipe is not None
    assert entry.recipe.total_duration == pytest.approx(600.0)
    assert "fuse-exp" in entry.recipe.installed_models
    image = library.image_for("fuse-exp")
    assert image.kind == ImageKind.INCUBATOR
    assert image.run_speed_factor == ModelLibrary.INCUBATOR_SPEED


def test_incubator_base_is_shared(library, morland):
    library.publish_experimental("a", morland, make_topmodel_process)
    library.publish_experimental("b", morland, make_topmodel_process)
    assert library.image_for("a") is library.image_for("b")


def test_duplicate_model_name_rejected(library, morland):
    library.publish_streamlined("m", morland, make_topmodel_process)
    with pytest.raises(ValueError):
        library.publish_experimental("m", morland, make_topmodel_process)


def test_update_bundle_rebakes_new_generation(library, morland):
    library.publish_streamlined("m", morland, make_topmodel_process)
    first_image = library.image_for("m")
    updated = library.update_bundle("m", extra_dataset_ids=("morland/2013",),
                                    size_increase_gb=1.0)
    assert updated.generation == 2
    assert updated.parent_id == first_image.image_id
    assert library.image_for("m") is updated
    experimental = library.publish_experimental(
        "x", morland, make_topmodel_process)
    with pytest.raises(ValueError):
        library.update_bundle("x")


def test_unknown_model_lookup(library):
    with pytest.raises(KeyError):
        library.get("ghost")


def test_list_filters_by_kind(library, morland):
    library.publish_streamlined("s", morland, make_topmodel_process)
    library.publish_experimental("e", morland, make_topmodel_process)
    assert [e.name for e in library.list(ModelKind.STREAMLINED)] == ["s"]
    assert len(library.list()) == 2


def test_build_service_exposes_processes(sim, library, morland):
    library.publish_streamlined("topmodel-morland", morland,
                                make_topmodel_process)
    store = BlobStore(sim)
    service = library.build_service(
        sim, "left-morland", ["topmodel-morland"],
        store.create_container("status"), {"morland": morland})
    assert service.processes() == ["topmodel-morland"]


def test_topmodel_process_runs_scenarios(morland):
    process = make_topmodel_process(morland)
    inputs = process.validate({"duration_hours": 72, "scenario": "compaction"})
    outputs = process.execute(inputs)
    assert outputs["scenario"] == "compaction"
    assert outputs["peak_mm_h"] > 0
    assert len(outputs["hydrograph_mm_h"]) == 72
    baseline = process.execute(process.validate({"duration_hours": 72}))
    assert outputs["peak_mm_h"] > baseline["peak_mm_h"]


def test_topmodel_process_rejects_bad_scenario(morland):
    process = make_topmodel_process(morland)
    inputs = process.validate({"scenario": "terraform"})
    with pytest.raises(ValueError):
        process.execute(inputs)


def test_fuse_process_reports_ensemble_spread(morland):
    process = make_fuse_process(morland)
    outputs = process.execute(process.validate({"duration_hours": 48}))
    assert len(outputs["members"]) == 16
    assert len(outputs["lower_mm_h"]) == 48
    for lo, hi in zip(outputs["lower_mm_h"], outputs["upper_mm_h"]):
        assert lo <= hi + 1e-12
    # the ensemble is ~16x the cost of a single run
    single = make_topmodel_process(morland)
    assert process.cost({"duration_hours": 48}) > \
        10 * single.cost({"duration_hours": 48})


def test_deployment_paths_trade_off(sim, library, morland):
    """Streamlined: slower boot, faster run; incubator: the reverse."""
    streams = RandomStreams(1)
    private = OpenStackCloud(sim, total_vcpus=32, streams=streams)
    multi = MultiCloud()
    multi.register_compute("private", private)
    library.publish_streamlined("bundle", morland, make_topmodel_process,
                                bundle_size_gb=6.0)
    library.publish_experimental("incubated", morland, make_topmodel_process,
                                 install_minutes=8.0)
    deployer = ModelDeployer(sim, multi, library)
    bundle_done = deployer.deploy("bundle", first_run_cost=2.0)
    incubator_done = deployer.deploy("incubated", first_run_cost=2.0)
    sim.run()
    bundle, incubated = bundle_done.value, incubator_done.value
    assert bundle is not None and incubated is not None
    assert bundle.path == "streamlined"
    assert incubated.path == "experimental"
    # the bigger bundle image boots slower...
    assert bundle.boot_seconds > incubated.boot_seconds
    # ...but needs no provisioning and runs faster per run
    assert bundle.provision_seconds == 0.0
    assert incubated.provision_seconds > 60.0
    assert bundle.run_seconds < incubated.run_seconds
    # overall the incubator path takes longer to first result here
    assert incubated.time_to_first_result > bundle.time_to_first_result


def test_deployment_fires_none_on_instance_crash(sim, library, morland):
    streams = RandomStreams(2)
    private = OpenStackCloud(sim, total_vcpus=8, streams=streams)
    multi = MultiCloud()
    multi.register_compute("private", private)
    library.publish_experimental("doomed", morland, make_topmodel_process,
                                 install_minutes=30.0)
    deployer = ModelDeployer(sim, multi, library)
    done = deployer.deploy("doomed")
    # crash the instance mid-provisioning
    from repro.cloud import FaultInjector
    injector = FaultInjector(sim, [private])

    def crash_when_running():
        while not private.serving_instances():
            yield 5.0
        injector.crash(private.serving_instances()[0])

    sim.spawn(crash_when_running(), name="crasher")
    sim.run()
    assert done.value is None


# -- content-addressed results behind the processes ---------------------------

FACTORIES = {"topmodel": make_topmodel_process,
             "water-quality": make_water_quality_process,
             "fuse": make_fuse_process}


def in_bounds_inputs(draw, specs):
    """Raw inputs inside every declared bound (short spans: fast runs)."""
    raw = {"duration_hours": draw(st.integers(24, 60)),
           "scenario": draw(st.sampled_from(sorted(STANDARD_SCENARIOS)))}
    for spec in specs:
        if spec.name in raw or spec.minimum is None or not draw(st.booleans()):
            continue
        if spec.data_type == "int":
            raw[spec.name] = draw(st.integers(int(spec.minimum),
                                              min(int(spec.maximum), 10_000)))
        else:
            raw[spec.name] = draw(st.floats(spec.minimum, spec.maximum))
    return raw


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_memoised_outputs_equal_the_unmemoised_run(name, data):
    morland = STUDY_CATCHMENTS["morland"]
    process = FACTORIES[name](morland)
    pair = [process.validate(
        in_bounds_inputs(data.draw, process.description.inputs))
        for _ in range(2)]
    oracles = [FACTORIES[name](morland).compute(dict(inputs))
               for inputs in pair]
    # first call and repeat call, interleaved: a key that confused the
    # two input sets would hand one the other's hydrograph
    for index in (0, 1, 0, 1):
        assert process.execute(pair[index]) == oracles[index]
    distinct = len({canonical_json(inputs) for inputs in pair})
    stats = process.results.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == \
        (distinct, 4 - distinct, distinct)


def test_spelled_out_defaults_address_the_same_entry(morland):
    process = make_topmodel_process(morland)
    implicit = process.execute(process.validate({}))
    explicit = process.execute(process.validate(
        {"duration_hours": 168, "storm_depth_mm": 60.0,
         "storm_start_hour": 24, "storm_duration_hours": 8,
         "weather_seed": 1, "scenario": "baseline", "q0_mm_h": 0.3}))
    assert explicit == implicit
    assert process.results.stats()["misses"] == 1
    assert process.results.stats()["hits"] == 1
    # a different value of any input is a different run
    process.execute(process.validate({"weather_seed": 2}))
    assert process.results.stats()["misses"] == 2


def test_a_replaced_dataset_is_different_forcing(sim, morland):
    warehouse = DataWarehouse(BlobStore(sim))
    process = make_topmodel_process(morland, warehouse=warehouse)
    inputs = process.validate({"rainfall_dataset": "user/rain"})
    warehouse.put_series("user/rain",
                         TimeSeries(0, 3600, [0.5] * 48, units="mm/h"))
    drizzle = process.execute(inputs)
    assert process.execute(inputs) == drizzle
    warehouse.put_series("user/rain",
                         TimeSeries(0, 3600, [4.0] * 48, units="mm/h"))
    downpour = process.execute(inputs)
    assert downpour["rainfall_mm_h"] == [4.0] * 48
    assert downpour["peak_mm_h"] > drizzle["peak_mm_h"]
    assert downpour == make_topmodel_process(
        morland, warehouse=warehouse).compute(inputs)
    stats = process.results.stats()
    assert (stats["misses"], stats["hits"]) == (2, 1)


def test_a_hit_still_answers_to_the_access_policy(sim, morland):
    warehouse = DataWarehouse(BlobStore(sim))
    policy = AccessPolicy()
    owner = GuardedWarehouse(warehouse, policy, "dr-rivers")
    owner.put_series("user/dr-rivers/private",
                     TimeSeries(0, 3600, [1.0] * 48, units="mm/h"),
                     restricted=True)
    process = make_topmodel_process(
        morland, warehouse=owner.as_principal(MODEL_RUNNER))
    inputs = process.validate({"rainfall_dataset": "user/dr-rivers/private"})
    process.execute(inputs)
    policy.register("user/dr-rivers/private", owner="dr-rivers",
                    restricted=True, delegated_compute=False)
    with pytest.raises(AccessDenied):
        process.execute(inputs)


def test_a_run_that_raises_is_not_stored(morland):
    process = make_topmodel_process(morland)
    inputs = process.validate({"scenario": "terraform"})
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown scenario"):
            process.execute(inputs)
    stats = process.results.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (3, 0, 0)
    # so is a dataset named with no warehouse to read it from
    with pytest.raises(ValueError, match="no warehouse"):
        process.execute(process.validate({"rainfall_dataset": "user/rain"}))
    assert process.results.stats()["entries"] == 0


def test_vandalised_outputs_do_not_reach_the_stored_entry(morland):
    process = make_fuse_process(morland)
    inputs = process.validate({"duration_hours": 24})
    pristine = process.compute(inputs)
    for _ in range(2):      # the miss's own return, then a hit's
        outputs = process.execute(inputs)
        outputs["hydrograph_mm_h"][0] = -1.0
        outputs["members"].clear()
        outputs["peak_mm_h"] = "vandalised"
        del outputs["scenario"]
    assert process.execute(inputs) == pristine


def test_the_cap_evicts_the_least_recently_used_run(morland):
    process = make_topmodel_process(morland)
    cap = process.results.max_entries

    def run(seed):
        return process.execute(process.validate(
            {"duration_hours": 24, "weather_seed": seed}))

    for seed in range(cap):
        run(seed)
    run(0)                                  # refreshed: now the newest
    run(cap)                                # one past the cap
    stats = process.results.stats()
    assert (stats["entries"], stats["evictions"]) == (cap, 1)
    run(0)                                  # survived
    assert process.results.stats()["hits"] == 2
    run(1)                                  # was the oldest: recomputed
    assert process.results.stats()["misses"] == cap + 2


def _execute_over_rest(sim, network, instance, raw_inputs):
    request = HttpRequest(
        "POST", "/v1/wps/processes/topmodel-morland/execute",
        body={"inputs": raw_inputs})
    signal = network.request(instance.address, request, timeout=300.0)
    sim.run()
    assert signal.value.ok
    return signal.value


def _estate(sim, network, library, morland, replicas):
    built = []

    def factory(catchment):
        built.append(make_topmodel_process(catchment))
        return built[-1]

    name = f"model-{len(library.list())}"
    library.publish_streamlined(name, morland, factory)
    service = library.build_service(
        sim, f"left-{name}", [name],
        BlobStore(sim).create_container("status"), {"morland": morland})
    instances = []
    for index in range(replicas):
        image = library.image_for(name)
        instance = Instance(sim, f"{name}-{index}", "openstack", image,
                            Flavor("m", 2, 4096, 40))
        instance._mark_running()
        service.replica(instance).bind(network)
        instances.append(instance)
    (process,) = built
    return process, instances


def test_replicas_share_results_and_estates_do_not(sim, library, morland):
    network = Network(sim)
    process, (first, second) = _estate(sim, network, library, morland, 2)
    other, (elsewhere,) = _estate(sim, network, library, morland, 1)
    raw = {"duration_hours": 48, "scenario": "compaction"}
    one = _execute_over_rest(sim, network, first, raw)
    two = _execute_over_rest(sim, network, second, raw)
    assert two.body["outputs"] == one.body["outputs"]
    assert two.body["outputs"] is not one.body["outputs"]
    stats = process.results.stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)
    # the simulated clock never sees the memo: a hit is charged the
    # same CPU as the miss that computed it
    assert first.cpu_busy_seconds > 0.4
    assert second.cpu_busy_seconds == pytest.approx(first.cpu_busy_seconds)
    # another estate's process starts cold
    assert other.results.stats()["entries"] == 0
    _execute_over_rest(sim, network, elsewhere, raw)
    assert other.results.stats()["misses"] == 1
    assert process.results.stats()["misses"] == 1


def test_a_portal_storm_computes_each_distinct_input_set_once():
    evop = Evop(EvopConfig(truth_days=4, storm_day=2, min_replicas=2,
                           telemetry_interval=5.0, seed=5)).bootstrap()
    evop.run_for(600.0)
    tool = evop.left()
    widgets = []

    def user(index):
        widget = tool.open_modelling_widget(f"user-{index}")
        widgets.append(widget)
        assert (yield widget.load())
        buttons = widget.scenario_buttons
        for press in range(index, index + 6):
            widget.select_scenario(buttons[press % len(buttons)])
            assert (yield widget.run(duration_hours=48)) is not None
            yield 5.0

    for index in range(5):
        evop.sim.spawn(user(index), name=f"user-{index}")
    evop.run_for(3600.0)
    runs = [run for widget in widgets for run in widget.runs]
    assert len(runs) == 30
    distinct = {canonical_json(run.inputs) for run in runs}
    service = evop.wps_services[tool.catchment.name]
    stats = service._processes[f"topmodel-{tool.catchment.name}"] \
        .results.stats()
    assert stats["misses"] == stats["entries"] == len(distinct) < len(runs)
    assert stats["hits"] == len(runs) - len(distinct)
    # the counts live behind stats() only: nothing new is scraped
    assert not [name for name in evop.telemetry.store.names()
                if name.endswith(("hits", "misses", "evictions"))]
