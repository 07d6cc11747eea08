"""Nothing only a test calls: every callable in ``src/repro`` is reached.

A ``def`` at module level or in a class body, or a module-level class,
that nothing in ``src/``, ``benchmarks/`` or ``examples/`` refers to is
code no workload, bench, example or CLI command runs: only a unit test
keeps it alive.  Such a callable is deleted, unless it is in :data:`KEEP`
with one of these reasons:

* ``paper`` -- it implements a DESIGN.md row, named in :data:`ROWS`,
  that a test checks;
* ``science`` -- a hydrology or data-science routine of the model;
* ``oracle`` -- tests compare a production path against it;
* ``seam`` -- a test substitutes a fake or a store through it;
* ``dispatch`` -- it is reached by a computed name.

The scan is syntactic and by name, in the style of ``test_options.py``
and over the same trees.  A reference is a ``Name``, an ``Attribute``,
or a part of a dotted token (``a.b`` or ``module:Class.method``) in a
string constant that is not a docstring, so the e2e harness's traced
callables count.  Imports and ``__all__`` entries do not, and neither
does a callable's reference to itself.  Dunders are exempt.
"""

import ast
import re
from functools import lru_cache
from typing import Dict, Iterator, List, Set, Tuple

from tests.test_options import (
    _ACCESS, _CATALOG, _CHANNELS, _CHARTS, _DEF, _FAULTS, _QC, _REGISTRY,
    _SEARCH, _SENSORS, _SOS, _STORYBOARDS, _TRACEABILITY, _WIDGETS, _WPS,
    CALLERS, ROOT, _trees, design_rows)

REASONS = {"paper", "science", "oracle", "seam", "dispatch"}

#: each ``paper`` row's DESIGN.md system-inventory row (its first cell)
ROWS: Dict[str, str] = {
    "FaultInjector.heal": _FAULTS,
    "Evop.expose_sos": _SOS,
    "WebSocketConnection.on_server_message": _CHANNELS,
    "ServiceRegistry.by_type": _REGISTRY,
    "ServiceRegistry.find": _REGISTRY,
    "Sensor.backfill": _SENSORS,
    "SensorNetwork.by_catchment": _SENSORS,
    "AssetCatalog.by_kind": _CATALOG,
    "AssetCatalog.by_catchment": _CATALOG,
    "AssetCatalog.by_origin": _CATALOG,
    "CatalogSearch": _SEARCH,
    "CatalogSearch.facets": _SEARCH,
    "AccessPolicy.revoke": _ACCESS,
    "GuardedWarehouse.as_principal": _ACCESS,
    "Storyboard.unsatisfied": _STORYBOARDS,
    "verify_left_requirements": _TRACEABILITY,
    "LeftTool.quality_controlled_series": _QC,
    "ChartSpec.to_svg": _CHARTS,
    "WebcamWidget": _WIDGETS,
    "WebcamWidget.latest_frame": _WIDGETS,
    "WebcamWidget.frame_at": _WIDGETS,
    "WebcamWidget.filmstrip": _WIDGETS,
    "WebcamWidget.stage_series": _WIDGETS,
    "ModellingWidget.help_text": _WIDGETS,
    "ModellingWidget.set_slider": _WIDGETS,
    "ModellingWidget.hydrograph_chart": _WIDGETS,
    "ModellingWidget.run_async": _WPS,
    "RunHistoryStore": _WIDGETS,
    "RunHistoryStore.save": _WIDGETS,
    "RunHistoryStore.merge_into_widget": _WIDGETS,
}

KEEP: Dict[str, str] = {
    **{name: "paper" for name in ROWS},
    "Catchment.flood_threshold_m3s": "science",
    "catchment_from_dem": "science",
    "DemGrid.synthetic_valley": "science",
    "DemGrid.outlet": "science",
    "FuseResult.discharge_m3s": "science",
    "TopmodelResult.discharge_m3s": "science",
    "HydrographAnalysis.flow_duration_curve": "science",
    "HydrographAnalysis.recession_constant": "science",
    "rmse": "science",
    "percent_bias": "science",
    "kling_gupta_efficiency": "science",
    "peak_error": "science",
    "hamon_pet": "science",
    "TimeSeries.index_at": "science",
    "TimeSeries.resample": "science",
    "TimeSeries.gap_count": "science",
    "TimeSeries.shift": "science",
    "CalibrationRecord.is_behavioural": "science",
    "DataPlane.rebuild": "oracle",
}

_TOKEN = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")


def scan_callables() -> List[str]:
    """Every module-level def and class, and every def in such a class,
    as ``name`` or ``Class.name``."""
    found: List[str] = []
    for tree in _trees("src/repro"):
        for node in tree.body:
            if isinstance(node, _DEF + (ast.ClassDef,)):
                found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, _DEF)]
    return [name for name in found
            if not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[-1])]


def _references(tree: ast.AST) -> Iterator[Tuple[str, Set[str]]]:
    """(name referred to, the callables the reference sits inside)."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))          # a docstring
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            skipped.update(id(sub) for sub in ast.walk(node.value))

    def walk(node: ast.AST, inside: Tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if id(child) in skipped:
                continue
            here = inside
            if isinstance(child, _DEF + (ast.ClassDef,)):
                # ``name`` / ``Class.name`` as scan_callables spells them;
                # deeper defs get a path no scanned callable has
                here += (".".join(inside[-1:] + (child.name,)) if
                         len(inside) < 2 else f"{inside[-1]}/{child.name}",)
            if isinstance(child, ast.Name):
                yield child.id, set(inside)
            elif isinstance(child, ast.Attribute):
                yield child.attr, set(inside)
            elif isinstance(child, ast.Constant) \
                    and isinstance(child.value, str):
                for token in _TOKEN.findall(child.value):
                    for part in re.split(r"[.:]", token):
                        yield part, set(inside)
            yield from walk(child, here)

    yield from walk(tree, ())


def _reached(*dirs: str) -> Dict[str, List[Set[str]]]:
    reached: Dict[str, List[Set[str]]] = {}
    for tree in _trees(*dirs):
        for name, inside in _references(tree):
            reached.setdefault(name, []).append(inside)
    return reached


@lru_cache(maxsize=None)
def unreached_callables() -> Tuple[List[str], List[str]]:
    """(every callable, the ones nothing outside ``tests/`` refers to)."""
    callables = scan_callables()
    reached = _reached(*CALLERS)
    unreached = [name for name in callables
                 if not any(name not in inside for inside in
                            reached.get(name.rsplit(".", 1)[-1], ()))]
    return callables, unreached


def test_every_callable_has_a_caller_or_a_reason():
    callables, unreached = unreached_callables()
    print(f"{len(callables)} callables in src/repro, {len(unreached)} "
          f"reached by no caller ({len(KEEP)} kept)")
    dead = sorted(set(unreached) - set(KEEP))
    assert dead == [], (
        "callables only a test reaches: delete each (its tests move to "
        "the door that remains), or keep it in KEEP with its reason")


def test_every_kept_callable_is_unreached_and_has_a_known_reason():
    _callables, unreached = unreached_callables()
    assert set(KEEP.values()) <= REASONS
    assert set(KEEP) <= set(unreached)
    assert set(ROWS) == {name for name, why in KEEP.items() if why == "paper"}
    assert set(ROWS.values()) <= design_rows()


def test_every_kept_callable_is_checked_by_a_test():
    here = __name__.rsplit(".", 1)[-1] + ".py"
    checked = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != here:
            checked.update(name for name, _inside
                           in _references(ast.parse(path.read_text())))
    assert {name for name in KEEP
            if name.rsplit(".", 1)[-1] not in checked} == set()
