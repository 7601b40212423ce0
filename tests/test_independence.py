"""The library never imports the independent oracles it is checked against."""

import ast
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
