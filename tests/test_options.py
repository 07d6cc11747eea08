"""One door per setting: every constructor option in ``src/repro`` is set.

An ``__init__`` parameter with a default is an option.  One that no call
in ``src/``, ``benchmarks/`` or ``examples/`` sets is a constant written
as a setting: it doubles the configurations tests must cover and hides
the value the system always runs with.  Such an option becomes a named
constant, unless it is in :data:`KEEP` with one of these reasons:

* ``seam`` -- a test substitutes a fake or a store through it;
* ``check`` -- its other value turns on a check, bound or refusal;
* ``science`` -- a parameter of the hydrology or weather science;
* ``deployment`` -- a name or a path;
* ``defect`` -- its caller is missing by mistake (see ROADMAP.md).

The scan is syntactic.  A call sets an option when it passes it by
keyword or by position, or passes ``**`` / ``*`` arguments that could
carry it.  A call reaches a class by its name, by ``cls(...)`` inside
it, by ``super().__init__`` inside a subclass, or through a subclass
that has no ``__init__`` of its own.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples")
REASONS = {"seam", "check", "science", "deployment", "defect"}

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

#: class, parameter, its position (``None``: keyword-only)
Option = Tuple[str, str, Optional[int]]


def _trees(*dirs: str):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield ast.parse(path.read_text(), filename=str(path))


def _base_names(node: ast.ClassDef) -> List[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]


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
                    args = item.args
                    positional = [a.arg for a in
                                  args.posonlyargs + args.args][1:]
                    first = len(positional) - len(args.defaults)
                    options += [(node.name, name, index) for index, name
                                in enumerate(positional) if index >= first]
                    options += [(node.name, a.arg, None)
                                for a, default in zip(args.kwonlyargs,
                                                      args.kw_defaults)
                                if default is not None]
    return options, bases


class _Calls(ast.NodeVisitor):
    """What the calls in one tree pass, by the class they construct."""

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
        passed = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
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
                k.arg or "**" for k in node.keywords)
            self.positions[owner] = max(self.positions.get(owner, 0), passed)
        self.generic_visit(node)


@lru_cache(maxsize=None)
def unset_options() -> Tuple[List[Option], List[Option]]:
    """(every option, the ones no call outside ``tests/`` sets)."""
    options, bases = scan_options()
    calls = _Calls(bases, {cls for cls, _name, _index in options})
    for tree in _trees(*CALLERS):
        calls.visit(tree)
    unset = [(cls, name, index) for cls, name, index in options
             if not ({name, "**"} & calls.keywords.get(cls, set())
                     or index is not None
                     and index < calls.positions.get(cls, 0))]
    return options, unset


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
