"""Source hygiene: no module of the package imports a name it never uses.

The re-exports of ``__init__.py`` are exempt, and so is an import statement
marked ``# noqa: F401`` (a name kept importable for code that patches it).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "impspace"


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name that the source never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_modules_use_every_import():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert "explorer.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import groupby, islice\n"
              "from operator import attrgetter  # noqa: F401\n"
              "rows = list(islice(os.path.sep, 1))\n")
    assert unused_imports(source) == ["3: groupby"]
