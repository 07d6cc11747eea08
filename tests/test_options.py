"""One door per setting: every defaulted parameter in ``src/repro`` is set.

An ``__init__`` parameter with a default is an option, and so is a
defaulted parameter of a module-level function or of a method of a
module-level class.  One that no call in ``src/``, ``benchmarks/`` or
``examples/`` passes is a constant written as a setting: it doubles the
configurations tests must cover and hides the value the system always
runs with.  Such an option becomes a named constant (a parameter: its
default becomes the code, and the branch it selected goes), unless it
is in :data:`KEEP` (options) or :data:`KEEP_PARAMS` (parameters) with
one of these reasons:

* ``seam`` -- a test substitutes a fake or a store through it;
* ``check`` -- its other value turns on a check, bound or refusal;
* ``science`` -- a parameter of the hydrology, weather or data science;
* ``deployment`` -- a name or a path;
* ``defect`` -- its caller is missing by mistake (see ROADMAP.md);
* ``paper`` -- it is a setting of a DESIGN.md row, named in
  :data:`PARAM_ROWS`, that a test checks.

The scan is syntactic and resolves a call by the name it calls.  A call
sets an option when it passes it by keyword or by position, or passes
``**`` / ``*`` arguments that could carry it; ``sim.schedule(delay, fn,
*args)`` is a call of ``fn(*args)``.  A call reaches a class by its
name, by ``cls(...)`` inside it, by ``super().__init__`` inside a
subclass, or through a subclass that has no ``__init__`` of its own.
Besides ``__init__`` no dunder or nested function is scanned, and
``self`` / ``cls`` are never parameters.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")
REASONS = {"seam", "check", "science", "deployment", "defect", "paper"}

# DESIGN.md system-inventory rows (their first cell) that a kept setting
# or callable implements
_FAULTS = "Fault injection (crash, degradation, network blackhole)"
_WPS = "OGC WPS (model execution services; sync + async)"
_SOS = "OGC SOS (sensor observation services)"
_CHANNELS = "WebSocket-like duplex channels + polling baseline"
_REGISTRY = "Service registry / catalogue"
_SENSORS = ("In-situ sensor network (rain, level, temperature, turbidity)"
            " + live feeds")
_CATALOG = ("Asset catalogue (geotagged, multi-origin: in-situ / warehoused"
            " / user / external)")
_WIDGETS = ("Visualization widgets: time-series, multimodal sensor+webcam,"
            " modelling widget (scenario buttons + parameter sliders + help)")
_CHARTS = "Chart spec renderer (Flot-like series → JSON/ASCII)"
_STORYBOARDS = "Storyboards, requirements capture"
_QC = "Observational QC (range/spike/flatline/gap pre-processing)"
_SEARCH = 'Catalogue keyword search + facets ("hard to locate")'
_TRACEABILITY = "Storyboard→system requirement traceability probes"
_ACCESS = ("Data ownership / delegation (restricted data usable by models,"
           " not downloadable)")

KEEP: Dict[str, str] = {
    "Simulator.strict": "seam",
    "TelemetryPlane.store": "seam",
    "WorkflowEngine.tracer": "seam",
    "TenantRegistry.strict": "check",
    "LoadBalancer.queue_bounds": "check",
    "OpenStackCloud.project_quota_vcpus": "check",
    "UploadService.policy": "check",
    "WeatherGenerator.wet_persistence": "science",
    "WeatherGenerator.dry_persistence": "science",
    "WeatherGenerator.gamma_shape": "science",
    "WeatherGenerator.mean_temperature_c": "science",
    "WeatherGenerator.seasonal_amplitude_c": "science",
    "WeatherGenerator.diurnal_amplitude_c": "science",
    "MonteCarloCalibrator.objective": "science",
    "GlueAnalysis.lower_quantile": "science",
    "GlueAnalysis.upper_quantile": "science",
    "NationalOutlook.catchments": "science",
    "DataPlane.prefix": "deployment",
    "RestClient.tenant": "defect",
}

#: each ``paper`` parameter's DESIGN.md row
PARAM_ROWS: Dict[str, str] = {
    "AccessPolicy.register.delegated_compute": _ACCESS,
    "GuardedWarehouse.put_series.restricted": _ACCESS,
    "CatalogSearch.search.kind": _SEARCH,
    "CatalogSearch.search.catchment": _SEARCH,
    "verify_left_requirements.storyboard": _TRACEABILITY,
    "ChartSpec.to_svg.width": _CHARTS,
    "ChartSpec.to_svg.height": _CHARTS,
    "WebcamWidget.filmstrip.max_frames": _WIDGETS,
    "ModellingWidget.run_async.poll_interval": _WPS,
}

KEEP_PARAMS: Dict[str, str] = {
    **{name: "paper" for name in PARAM_ROWS},
    "compose_wps_process.engine": "seam",
    "run_top.stream": "seam",
    "Evop.expose_sos.catchment_name": "deployment",
    "Evop.left.catchment_name": "deployment",
    "Catchment.ti_distribution.classes": "science",
    "Catchment.topmodel.dt_hours": "science",
    "catchment_from_dem.country": "science",
    "catchment_from_dem.annual_rainfall_mm": "science",
    "catchment_from_dem.flood_threshold_mm_h": "science",
    "catchment_from_dem.classes": "science",
    "DemGrid.synthetic_valley.rows": "science",
    "DemGrid.synthetic_valley.cols": "science",
    "DemGrid.synthetic_valley.cell_size_m": "science",
    "DemGrid.synthetic_valley.relief_m": "science",
    "DemGrid.synthetic_valley.roughness_m": "science",
    "DemGrid.synthetic_valley.seed": "science",
    "QualityReport.usable.max_flagged": "science",
    "quality_control.limits": "science",
    "quality_control.spike_window": "science",
    "quality_control.spike_threshold": "science",
    "quality_control.flatline_run": "science",
    "quality_control.fill": "science",
    "Sensor.to_timeseries.dt": "science",
    "WeatherGenerator.rainfall_with_storm.start": "science",
    "WeatherGenerator.daily_pet.start": "science",
    "gamma_route.kernel_length": "science",
    "fuse_ensemble.decisions": "science",
    "fuse_ensemble.dt_hours": "science",
    "HydrographAnalysis.flow_duration_curve.points": "science",
    "HydrographAnalysis.events_above.min_gap_steps": "science",
    "hamon_pet.first_day_of_year": "science",
    "TimeSeries.resample.how": "science",
    "Topmodel.run_batch.pet": "science",
    "TopmodelEnsemble.prepare.pet": "science",
    "TopmodelEnsemble.prepare.base": "science",
    "CalibrationRecord.is_behavioural.threshold": "science",
    "NationalOutlook.assess.antecedent_wetness": "science",
}

#: owner (a class, or a def as ``name`` / ``Class.name``), parameter,
#: its position (``None``: keyword-only)
Option = Tuple[str, str, Optional[int]]

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees(*dirs: str):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield ast.parse(path.read_text(), filename=str(path))


def design_rows() -> Set[str]:
    """The first cells of DESIGN.md's table rows."""
    design = (ROOT / "DESIGN.md").read_text()
    return {line.split("|")[1].strip() for line in design.splitlines()
            if line.startswith("| ")}


def _base_names(node: ast.ClassDef) -> List[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]


def _defaulted(owner: str, fn: ast.FunctionDef,
               bound: bool) -> List[Option]:
    """``fn``'s defaulted parameters; a bound one's first is not counted."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][bound:]
    first = len(positional) - len(args.defaults)
    return [(owner, name, index) for index, name in enumerate(positional)
            if index >= first] + [
        (owner, a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None]


def scan_options() -> Tuple[List[Option], Dict[str, List[str]]]:
    """Every defaulted ``__init__`` option, and each class's bases."""
    options: List[Option] = []
    bases: Dict[str, List[str]] = {}
    for tree in _trees("src/repro"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name] = _base_names(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    options += _defaulted(node.name, item, True)
    return options, bases


def scan_parameters() -> List[Option]:
    """Every defaulted parameter of a module-level function or of a method
    of a module-level class; ``__init__`` and the other dunders are not
    counted."""
    found: List[Option] = []
    for tree in _trees("src/repro"):
        for node in tree.body:
            owner, defs = None, [node]
            if isinstance(node, ast.ClassDef):
                owner, defs = node.name, node.body
            for fn in defs:
                if not isinstance(fn, _DEF) \
                        or re.fullmatch(r"__\w+__", fn.name):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                name = f"{owner}.{fn.name}" if owner else fn.name
                found += _defaulted(name, fn, bool(owner) and not static)
    return found


class _Calls(ast.NodeVisitor):
    """What the calls in some trees pass, by the class they construct or
    the def they call."""

    def __init__(self, bases: Dict[str, List[str]], owners: Set[str]):
        self.bases = bases
        self.owners = owners
        self.keywords: Dict[str, Set[str]] = {}
        self.positions: Dict[str, int] = {}
        self._inside: List[str] = []

    def _owners_of(self, name: str) -> List[str]:
        if name in self.owners:
            return [name]
        return [owner for base in self.bases.get(name, ())
                for owner in self._owners_of(base)]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func, here = node.func, self._inside[-1] if self._inside else None
        targets: List[str] = []
        args, keywords = node.args, node.keywords
        if getattr(func, "attr", None) == "schedule" and len(args) >= 2 \
                and isinstance(args[1], (ast.Name, ast.Attribute)):
            # ``sim.schedule(delay, fn, *args)`` calls ``fn(*args)``
            func, args, keywords = args[1], args[2:], []
        passed = len(args)
        if any(isinstance(a, ast.Starred) for a in args):
            passed = 1 << 30
        if isinstance(func, ast.Name):
            targets = [here] if func.id == "cls" and here else [func.id]
        elif isinstance(func, ast.Attribute) and func.attr != "__init__":
            targets = [func.attr]
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            # ``Base.__init__(self, ...)``: ``self`` is not an option
            targets, passed = [func.value.id], passed - 1
        elif isinstance(func, ast.Attribute) and here \
                and isinstance(func.value, ast.Call) \
                and getattr(func.value.func, "id", None) == "super":
            targets = self.bases.get(here, [])
        for owner in {o for target in targets for o in self._owners_of(target)}:
            self.keywords.setdefault(owner, set()).update(
                k.arg or "**" for k in keywords)
            self.positions[owner] = max(self.positions.get(owner, 0), passed)
        self.generic_visit(node)

    def passes(self, owner: str, name: str, index: Optional[int]) -> bool:
        """Whether some call reaching ``owner`` passes parameter ``name``."""
        return bool({name, "**"} & self.keywords.get(owner, set())) or (
            index is not None and index < self.positions.get(owner, 0))


def _calls(bases: Dict[str, List[str]], owners: Set[str],
           dirs: Tuple[str, ...] = CALLERS) -> _Calls:
    calls = _Calls(bases, owners)
    for tree in _trees(*dirs):
        calls.visit(tree)
    return calls


@lru_cache(maxsize=None)
def unset_options() -> Tuple[List[Option], List[Option]]:
    """(every option, the ones no call outside ``tests/`` sets)."""
    options, bases = scan_options()
    calls = _calls(bases, {cls for cls, _name, _index in options})
    return options, [option for option in options
                     if not calls.passes(*option)]


def test_every_option_has_a_caller_or_a_reason():
    options, unset = unset_options()
    print(f"{len(options)} defaulted __init__ options in "
          f"{len({cls for cls, _n, _i in options})} src/repro classes, "
          f"{len(unset)} set by no caller ({len(KEEP)} kept)")
    constants = sorted(f"{cls}.{name}" for cls, name, _index in unset
                       if f"{cls}.{name}" not in KEEP)
    assert constants == [], (
        "options no caller sets: make each a named constant with the same "
        "value, or keep it in KEEP with its reason")


def test_every_kept_option_is_unset_and_has_a_known_reason():
    _options, unset = unset_options()
    assert set(KEEP.values()) <= REASONS
    assert set(KEEP) <= {f"{cls}.{name}" for cls, name, _index in unset}


def _unpassed(params: List[Option],
              dirs: Tuple[str, ...] = CALLERS) -> List[Option]:
    """The def parameters no call in ``dirs`` passes (calls resolve by
    the def's own name)."""
    def called(owner: str) -> str:
        return owner.rsplit(".", 1)[-1]

    calls = _calls({}, {called(owner) for owner, _n, _i in params}, dirs)
    return [(owner, name, index) for owner, name, index in params
            if not calls.passes(called(owner), name, index)]


@lru_cache(maxsize=None)
def unset_parameters() -> Tuple[List[Option], List[Option]]:
    """(every defaulted parameter, the ones no call outside ``tests/``
    passes)."""
    params = scan_parameters()
    return params, _unpassed(params)


def test_every_parameter_has_a_caller_or_a_reason():
    params, unset = unset_parameters()
    print(f"{len(params)} defaulted parameters of src/repro functions and "
          f"methods, {len(unset)} passed by no caller ({len(KEEP_PARAMS)} "
          f"kept)")
    constants = sorted(f"{owner}.{name}" for owner, name, _index in unset
                       if f"{owner}.{name}" not in KEEP_PARAMS)
    assert constants == [], (
        "parameters no caller passes: make each default the code and delete "
        "the branch it selected, or keep it in KEEP_PARAMS with its reason")


def test_every_kept_parameter_is_unset_and_has_a_known_reason():
    _params, unset = unset_parameters()
    assert set(KEEP_PARAMS.values()) <= REASONS
    assert set(KEEP_PARAMS) <= {f"{owner}.{name}"
                                for owner, name, _index in unset}
    assert set(PARAM_ROWS) == {name for name, why in KEEP_PARAMS.items()
                               if why == "paper"}
    assert set(PARAM_ROWS.values()) <= design_rows()
    # a ``paper`` setting is one a test checks
    assert _unpassed([(owner, name, index) for owner, name, index in unset
                      if f"{owner}.{name}" in PARAM_ROWS], ("tests",)) == []
