"""WPS process definitions for the hydrological models.

Each factory turns a catchment-bound model into a
:class:`~repro.services.wps.WpsProcess`: declared inputs (with the
bounds the widget sliders render), a cost estimator proportional to the
simulated span, and a run function that generates the catchment's
weather, applies the chosen scenario, executes the model and returns the
hydrograph plus the summary numbers the widget displays.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.data.catchments import Catchment
from repro.data.weather import DesignStorm
from repro.hydrology.fuse import FuseParameters, fuse_ensemble
from repro.hydrology.hydrograph import HydrographAnalysis
from repro.hydrology.scenarios import STANDARD_SCENARIOS
from repro.hydrology.topmodel import TopmodelParameters
from repro.perf import RunCache, run_key
from repro.perf.keys import Sized
from repro.services.wps import InputSpec, ProcessDescription, WpsProcess
from repro.sim import RandomStreams

#: CPU-seconds charged per simulated hour per TI class (reference core).
_COST_PER_HOUR = 0.004
#: Fixed overhead of staging data and writing outputs.
_COST_OVERHEAD = 0.4

_SCENARIO_KEYS = tuple(STANDARD_SCENARIOS)
#: Distinct runs a process remembers: the scenario buttons repeat a
#: handful, the bound keeps slider exploration from growing memory.
_RESULT_ENTRIES = 64


def _common_inputs() -> list:
    return [
        InputSpec("rainfall_dataset", "string", required=False,
                  abstract=("Warehouse id of a user-provided rainfall "
                            "series; overrides the generated weather")),
        InputSpec("duration_hours", "int", required=False, default=168,
                  minimum=24, maximum=24 * 90,
                  abstract="Simulated span in hours"),
        InputSpec("storm_depth_mm", "float", required=False, default=60.0,
                  minimum=0.0, maximum=250.0,
                  abstract="Design storm total depth"),
        InputSpec("storm_start_hour", "int", required=False, default=24,
                  minimum=0, maximum=24 * 30),
        InputSpec("storm_duration_hours", "int", required=False, default=8,
                  minimum=1, maximum=72),
        InputSpec("weather_seed", "int", required=False, default=1,
                  minimum=0, maximum=10_000_000,
                  abstract="Seed of the stochastic weather realisation"),
        InputSpec("scenario", "string", required=False, default="baseline",
                  abstract=f"One of {', '.join(_SCENARIO_KEYS)}"),
    ]


def _storm_rainfall(catchment: Catchment, inputs: Dict[str, Any],
                    warehouse=None):
    generator = catchment.weather_generator(
        RandomStreams(int(inputs["weather_seed"])))
    dataset_id = inputs.get("rainfall_dataset")
    if dataset_id:
        if warehouse is None:
            raise ValueError("rainfall_dataset given but the process has "
                             "no warehouse attached")
        rain = warehouse.get_series(dataset_id)
        hours = len(rain)
    else:
        storm = DesignStorm(
            start_hour=int(inputs["storm_start_hour"]),
            duration_hours=int(inputs["storm_duration_hours"]),
            total_depth_mm=float(inputs["storm_depth_mm"]),
        )
        hours = int(inputs["duration_hours"])
        rain = generator.rainfall_with_storm(hours, storm,
                                             start_day_of_year=330)
    pet = generator.daily_pet(hours, start_day_of_year=330)
    return rain, pet


def _scenario(inputs: Dict[str, Any]):
    key = inputs.get("scenario") or "baseline"
    if key not in STANDARD_SCENARIOS:
        raise ValueError(f"unknown scenario {key!r}; "
                         f"choose from {_SCENARIO_KEYS}")
    return STANDARD_SCENARIOS[key]


def _overrides(inputs: Dict[str, Any], *names: str) -> Dict[str, float]:
    return {name: float(inputs[name]) for name in names
            if inputs.get(name) is not None}


def _summarise(flow, rain, catchment: Catchment) -> Dict[str, Any]:
    analysis = HydrographAnalysis(flow, rain)
    threshold = catchment.flood_threshold_mm_h
    return {
        "hydrograph_mm_h": flow.values,
        "rainfall_mm_h": rain.values,
        "dt_seconds": flow.dt,
        "peak_mm_h": analysis.peak(),
        "peak_time_hours": flow.argmax_time() / 3600.0,
        "volume_mm": analysis.total_volume(),
        "threshold_mm_h": threshold,
        "threshold_exceeded": analysis.peak() > threshold,
        "exceedance_fraction": analysis.exceedance_fraction(threshold),
        "events_above_threshold": len(analysis.events_above(threshold)),
    }


class ModelProcess(WpsProcess):
    """A pure model run behind ``Execute``, computed once per content.

    ``simulate(inputs, rain, pet, scenario)`` is the model's own part of
    a run.  ``execute`` answers from :attr:`results`, keyed by process
    identifier + validated inputs + the etag of the uploaded rainfall
    series when one is named, so a dataset replaced under the same id
    misses.  The memo is the process object's: a service's replicas
    share it, every estate starts cold, a run that raises is not stored.
    Only host work is saved — the job is charged ``cost(inputs)`` on the
    simulated clock, hit or miss.  A stored result is a
    :class:`~repro.perf.keys.Sized` document, so its wire size is
    rendered once per content: every answer is a copy carrying it.
    """

    def __init__(self, description: ProcessDescription, catchment: Catchment,
                 warehouse, simulate: Callable[..., Dict[str, Any]],
                 cost: Callable[[Dict[str, Any]], float]):
        super().__init__(description, run=self._answer, cost=cost)
        self._catchment = catchment
        self._warehouse = warehouse
        self._simulate = simulate
        self.results = RunCache(max_entries=_RESULT_ENTRIES)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """The un-memoised run (what a miss executes; the tests' oracle)."""
        rain, pet = _storm_rainfall(self._catchment, inputs, self._warehouse)
        return self._simulate(inputs, rain, pet, _scenario(inputs))

    def _answer(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        dataset_id = inputs.get("rainfall_dataset")
        # no warehouse: the miss below raises before anything is stored
        forcing = self._warehouse.etag_of(dataset_id) \
            if dataset_id and self._warehouse is not None else ""
        key = run_key(self.identifier, inputs, forcing)
        found, outputs = self.results.lookup(key)
        if not found:
            outputs = Sized(self.compute(inputs))
            self.results.store(key, outputs)
        # one level deep: outputs are scalars and flat lists, and neither
        # a client nor the idempotency index may reach the stored entry
        return outputs.copy()


def _single_run_cost(inputs: Dict[str, Any]) -> float:
    return _COST_OVERHEAD + _COST_PER_HOUR * float(inputs["duration_hours"])


def make_topmodel_process(catchment: Catchment,
                          warehouse=None) -> ModelProcess:
    """TOPMODEL as a WPS process for ``catchment``.

    Slider-facing model parameters (``m``, ``srmax``, ``q0_mm_h``,
    ``td``) override the scenario defaults, mirroring the widget where
    "sliders default to the settings for each scenario".  With a
    ``warehouse`` attached, the ``rainfall_dataset`` input lets users run
    the model on data they uploaded themselves.
    """
    description = ProcessDescription(
        identifier=f"topmodel-{catchment.name}",
        title=f"TOPMODEL ({catchment.display_name})",
        abstract=("Saturation-excess rainfall-runoff model driven by the "
                  "catchment's topographic index distribution."),
        inputs=_common_inputs() + [
            InputSpec("m", "float", required=False,
                      minimum=TopmodelParameters.RANGES["m"][0],
                      maximum=TopmodelParameters.RANGES["m"][1]),
            InputSpec("srmax", "float", required=False,
                      minimum=TopmodelParameters.RANGES["srmax"][0],
                      maximum=TopmodelParameters.RANGES["srmax"][1]),
            InputSpec("td", "float", required=False,
                      minimum=TopmodelParameters.RANGES["td"][0],
                      maximum=TopmodelParameters.RANGES["td"][1]),
            InputSpec("q0_mm_h", "float", required=False, default=0.3,
                      minimum=TopmodelParameters.RANGES["q0_mm_h"][0],
                      maximum=TopmodelParameters.RANGES["q0_mm_h"][1]),
        ],
        outputs=["hydrograph_mm_h", "peak_mm_h", "peak_time_hours",
                 "volume_mm", "threshold_exceeded", "saturated_fraction_max"],
    )
    model = catchment.topmodel()

    def simulate(inputs, rain, pet, scenario) -> Dict[str, Any]:
        base = TopmodelParameters(q0_mm_h=float(inputs["q0_mm_h"]))
        overrides = _overrides(inputs, "m", "srmax", "td")
        if overrides:
            base = base.with_updates(**overrides)
        result = scenario.run(model, rain, pet=pet, base_parameters=base)
        outputs = _summarise(result.flow, rain, catchment)
        outputs["saturated_fraction_max"] = result.saturated_fraction.maximum()
        outputs["scenario"] = scenario.key
        outputs["model"] = "topmodel"
        return outputs

    return ModelProcess(description, catchment, warehouse, simulate,
                        cost=_single_run_cost)


def make_water_quality_process(catchment: Catchment,
                               warehouse=None) -> ModelProcess:
    """Water quality as a WPS process — the stakeholders' next storyboard.

    Runs TOPMODEL under the chosen land-use scenario, then the
    export-coefficient water-quality model on top, reporting sediment
    and nutrient concentrations and loads at the outlet.
    """
    from repro.hydrology.water_quality import WaterQualityModel

    description = ProcessDescription(
        identifier=f"water-quality-{catchment.name}",
        title=f"Catchment water quality ({catchment.display_name})",
        abstract=("Sediment rating-curve and export-coefficient nutrient "
                  "model driven by the catchment's TOPMODEL simulation."),
        inputs=_common_inputs() + [
            InputSpec("sediment_a", "float", required=False,
                      minimum=1.0, maximum=500.0,
                      abstract="Sediment rating coefficient"),
        ],
        outputs=["sediment_mgl", "nitrate_mgl", "phosphorus_mgl",
                 "peak_sediment_mgl", "sediment_load_kg",
                 "nitrate_load_kg", "phosphorus_load_kg"],
    )
    model = catchment.topmodel()

    def simulate(inputs, rain, pet, scenario) -> Dict[str, Any]:
        hydrology = scenario.run(model, rain, pet=pet,
                                 base_parameters=TopmodelParameters(
                                     q0_mm_h=0.3))
        quality_model = WaterQualityModel()
        if inputs.get("sediment_a") is not None:
            quality_model = WaterQualityModel(
                quality_model.parameters.with_updates(
                    sediment_a=float(inputs["sediment_a"])))
        result = quality_model.run(hydrology, scenario=scenario.key)
        outputs: Dict[str, Any] = result.summary(catchment.area_km2)
        outputs["sediment_mgl"] = result.sediment_mgl.values
        outputs["nitrate_mgl"] = result.nitrate_mgl.values
        outputs["phosphorus_mgl"] = result.phosphorus_mgl.values
        outputs["dt_seconds"] = result.flow.dt
        outputs["model"] = "water-quality"
        return outputs

    def cost(inputs: Dict[str, Any]) -> float:
        # a flow simulation plus the chemistry pass
        return (_COST_OVERHEAD
                + 1.3 * _COST_PER_HOUR * float(inputs["duration_hours"]))

    return ModelProcess(description, catchment, warehouse, simulate, cost)


def make_fuse_process(catchment: Catchment, warehouse=None) -> ModelProcess:
    """The FUSE ensemble as a WPS process for ``catchment``.

    Runs all 16 structures and returns the ensemble mean and spread —
    the uncertainty presentation the stakeholders asked for.
    """
    description = ProcessDescription(
        identifier=f"fuse-{catchment.name}",
        title=f"FUSE ensemble ({catchment.display_name})",
        abstract=("Multi-model ensemble over the FUSE structural decision "
                  "space; reports the mean hydrograph and the 10-90% "
                  "structure spread."),
        inputs=_common_inputs() + [
            InputSpec("smax_upper", "float", required=False,
                      minimum=FuseParameters.RANGES["smax_upper"][0],
                      maximum=FuseParameters.RANGES["smax_upper"][1]),
            InputSpec("k_base", "float", required=False,
                      minimum=FuseParameters.RANGES["k_base"][0],
                      maximum=FuseParameters.RANGES["k_base"][1]),
        ],
        outputs=["hydrograph_mm_h", "lower_mm_h", "upper_mm_h",
                 "peak_mm_h", "members"],
    )

    def simulate(inputs, rain, pet, scenario) -> Dict[str, Any]:
        overrides = _overrides(inputs, "smax_upper", "k_base")
        params = FuseParameters().with_updates(**overrides) if overrides \
            else FuseParameters()
        # scenarios adjust TOPMODEL parameters; for FUSE the equivalent
        # knob is rainfall interception, applied as a pre-filter
        if scenario.parameter_updates.get("interception_mm"):
            depth = scenario.parameter_updates["interception_mm"]
            rain = rain.map(lambda v: max(0.0, v - depth))
        ensemble = fuse_ensemble(rain, pet=pet, parameters=params)
        outputs = _summarise(ensemble.mean, rain, catchment)
        outputs["lower_mm_h"] = ensemble.lower.values
        outputs["upper_mm_h"] = ensemble.upper.values
        outputs["members"] = ensemble.member_labels()
        outputs["scenario"] = scenario.key
        outputs["model"] = "fuse"
        return outputs

    def cost(inputs: Dict[str, Any]) -> float:
        # 16 structures: an ensemble costs what 16 single runs cost
        return _single_run_cost(inputs) * 16

    return ModelProcess(description, catchment, warehouse, simulate, cost)
