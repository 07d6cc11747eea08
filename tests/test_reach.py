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

The same rule holds for signals: a metric or event name that ``src/repro``
writes and nothing reads by name is deleted, and a fact a typed record
already keeps is read from that record, not copied into the event log
(see :data:`SIGNAL_KEEP` and :data:`FAMILIES`).
"""

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


# -- signals ----------------------------------------------------------------

#: the calls whose first argument names a signal
_SIGNAL_CALLS = {"counter", "gauge", "callback_gauge", "histogram",
                 "recorder", "emit"}
#: the two that write whenever called; a metric accessor writes only
#: through one of :data:`_WRITES` chained on its result
_ALWAYS_WRITES = {"callback_gauge", "emit"}
_WRITES = {"increment", "add", "set", "observe", "record"}
#: what a reading of a metric may append to its name
_DERIVED = ("mean", "peak", "p50", "p95", "p99", "count", "bucket")

#: a literal signal name nothing reads by name, kept for the reader that
#: reaches it through a computed one: ``name -> (reason, that reader)``
SIGNAL_KEEP: Dict[str, Tuple[str, str]] = {
    # REST's per-API histogram: ``/observability/exemplars/{metric}``
    # matches a histogram whose name equals or dot-suffixes ``metric``
    "duration": ("dispatch", "TelemetryPlane.exemplars"),
}

#: an f-string signal is a family named by its literal prefix, checked by
#: hand: ``prefix -> a file that reads the family by a name under it``.
#: ``submit.{class}`` had no reader and went.  ``launch.skipped.{location}``
#: went too: its one prefix reader, the e2e ``broker.scale_ups`` row,
#: sums ``launch.<location>`` keys and leaves the two-dot ones out.
FAMILIES: Dict[str, str] = {
    "fault.": "tests/test_broker_load_balancer.py",
    "launch.": "benchmarks/e2e/workloads/common.py",
    "lb.": "benchmarks/bench_failover.py",
    "obs.alert.": "benchmarks/bench_observability.py",
}


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _signal_writes(tree: ast.AST) -> Iterator[ast.expr]:
    """The first argument of every call here that writes a signal."""
    parents = {id(child): node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and _call_name(node) in _SIGNAL_CALLS):
            continue
        chained = parents.get(id(node))
        if _call_name(node) in _ALWAYS_WRITES or (
                isinstance(chained, ast.Attribute)
                and chained.attr in _WRITES):
            yield node.args[0]


def _files(*dirs: str) -> Iterator[Tuple[str, ast.AST]]:
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield (path.relative_to(ROOT).as_posix(),
                   ast.parse(path.read_text(), filename=str(path)))


@lru_cache(maxsize=None)
def scan_signals() -> Tuple[Set[str], Set[str]]:
    """(the literal names ``src/repro`` writes, its f-string prefixes)."""
    names: Set[str] = set()
    families: Set[str] = set()
    for _path, tree in _files("src/repro"):
        for arg in _signal_writes(tree):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
            elif isinstance(arg, ast.JoinedStr) and isinstance(
                    arg.values[0], ast.Constant):
                families.add(arg.values[0].value)
    return names, families


@lru_cache(maxsize=None)
def _readings() -> Dict[str, List[str]]:
    """path -> the string constants there that may read a signal.

    Not a docstring, not prose (a constant with whitespace), not the
    name of a write in ``src/repro`` (a test's copy of a write, kept as
    an oracle, compares what the original emits), not the label of a
    simulator ``signal()``, and not this file, whose tables spell the
    names they judge."""
    here = Path(__file__).resolve().relative_to(ROOT).as_posix()
    out: Dict[str, List[str]] = {}
    for path, tree in _files("src", *CALLERS[1:], "tests"):
        if path == here:
            continue
        skipped = {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Expr)}
        if path.startswith("src/repro/"):
            for arg in _signal_writes(tree):
                skipped.update(id(sub) for sub in ast.walk(arg))
        skipped.update(id(node.args[0]) for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and node.args
                       and _call_name(node) == "signal")
        out[path] = [node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and id(node) not in skipped
                     and not re.search(r"\s", node.value)]
    return out


def _reads(name: str, text: str) -> bool:
    """``text`` spells ``name``: alone, with labels or a query after it,
    or with a derived statistic appended."""
    return re.search(
        r"(?<![\w.])" + re.escape(name)
        + r"(?=$|[^\w.]|\.(?:" + "|".join(_DERIVED) + r")\b)",
        text) is not None


@lru_cache(maxsize=None)
def unread_signals() -> Tuple[List[str], List[str]]:
    """(every literal signal name, the ones nothing reads by name)."""
    names, _families = scan_signals()
    texts = [text for texts in _readings().values() for text in texts]
    return sorted(names), sorted(
        name for name in names
        if not any(_reads(name, text) for text in texts))


def test_every_signal_has_a_reader_or_a_reason():
    names, unread = unread_signals()
    _names, families = scan_signals()
    print(f"{len(names)} literal signal names and {len(families)} families "
          f"in src/repro, {len(unread)} read by nothing "
          f"({len(SIGNAL_KEEP)} kept)")
    dead = sorted(set(unread) - set(SIGNAL_KEEP))
    assert dead == [], (
        f"signals nothing reads by name: {dead}; delete each, or read it "
        f"from the typed record that already keeps the fact")


def test_every_kept_signal_is_unread_and_has_a_known_reason():
    _names, unread = unread_signals()
    assert {why for why, _reader in SIGNAL_KEEP.values()} <= {"dispatch"}
    assert set(SIGNAL_KEEP) <= set(unread)
    callables = set(scan_callables())
    assert {reader for _why, reader in SIGNAL_KEEP.values()} <= callables
    _names, families = scan_signals()
    assert sorted(families) == sorted(FAMILIES), (
        f"f-string signal families {sorted(families)}, checked by hand "
        f"{sorted(FAMILIES)}: a family nobody reads goes")
    readings = _readings()
    assert {prefix for prefix, path in FAMILIES.items()
            if not any(text.startswith(prefix)
                       for text in readings[path])} == set()
