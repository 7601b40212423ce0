"""The library never imports the independent oracles it is checked against,
and it needs nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import apmeasure

ORACLES = {"oracle", "helpers"}


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    return names


def test_library_imports_no_oracle():
    sources = sorted(Path(apmeasure.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        hits = {name for name in imported_modules(path)
                if ORACLES & set(name.split("."))}
        assert not hits, f"{path.name} imports {sorted(hits)}"


def third_party_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in `path` that are not standard library."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names} - sys.stdlib_module_names


def test_library_imports_only_the_standard_library():
    sources = sorted(Path(apmeasure.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        hits = third_party_imports(path)
        assert not hits, f"{path.name} imports {sorted(hits)}, outside the standard library"


# What `tests/helpers.py` may take from the library: the types its oracles
# return or read, and the measure constructor.  Any computation it checks
# the library against is written out there.
HELPER_IMPORTS = {"Atom", "DiscreteMeasure", "Interval", "MatchReport", "MatchedPair",
                  "StageScan", "WindowProfile", "make_measure"}


def test_helpers_import_only_types_and_constructors():
    path = Path(__file__).with_name("helpers.py")
    taken = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "apmeasure" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "apmeasure":
            taken.update(alias.name for alias in node.names)
    assert taken and taken <= HELPER_IMPORTS, f"helpers.py imports {sorted(taken - HELPER_IMPORTS)}"


LIBRARY = Path(apmeasure.__file__).parent
# the package modules each library module may import when it is imported; the CLI and the
# package itself register or re-export the others lazily, so a command runs only what it uses
LAYERS = {"__init__": set(), "cli": set(), "measures": set(), "construction": {"measures"},
          "piecewise": {"measures"}, "matching": {"measures", "piecewise"},
          "serialize": {"measures"}}


def package_imports(path: Path, module_level: bool) -> list[tuple[str, list[str]]]:
    """(package module, names) of each relative import in `path` (an absolute one would fail
    the standard-library test); with `module_level`, only those that run on import: outside
    function bodies and `if TYPE_CHECKING:` blocks."""
    found = []

    def visit(node):
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if module_level and isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            found.extend([(node.module, names)] if node.module else [(name, []) for name in names])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), str(path)))
    return found


def top_level_names(module: str) -> set[str]:
    """The names `module` of the package defines itself at its top level (imports excluded)."""
    names = set()
    for node in ast.parse((LIBRARY / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_modules_import_only_lower_layers():
    assert sorted(p.stem for p in LIBRARY.glob("*.py")) == sorted(LAYERS)
    for module, allowed in LAYERS.items():
        imported = {m for m, _ in package_imports(LIBRARY / f"{module}.py", module_level=True)}
        assert imported <= allowed, f"{module} imports {sorted(imported - allowed)} at module level"


def test_names_come_from_their_home_module():
    # every `from .m import name` anywhere in the library, and every re-export, names a module
    # that defines `name` itself rather than importing it from another
    for module in LAYERS:
        for source, names in package_imports(LIBRARY / f"{module}.py", module_level=False):
            missing = set(names) - top_level_names(source)
            assert not missing, f"{module} imports {sorted(missing)} from {source}, not their home"
    for source, names in apmeasure._EXPORTS.items():
        missing = set(names.split()) - top_level_names(source)
        assert not missing, f"apmeasure re-exports {sorted(missing)} from {source}, not their home"
