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
