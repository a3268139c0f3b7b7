"""Source hygiene: no module of the package imports a name it never uses
or a module from outside the standard library, and none defines a
top-level function or class that nothing names.

The re-exports of ``__init__.py`` are exempt, and so is an import statement
marked ``# noqa: F401`` (a name kept importable for code that patches it),
as long as the module never reads the name and some file under
``perfbench/`` names it.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "impspace"


def _imports(source: str) -> tuple[list[tuple[int, str, bool]], set[str]]:
    """``(line, name, exempt)`` for each imported name, where ``exempt``
    marks an import statement carrying ``# noqa: F401``, and the set of
    names the source reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        exempt = any("# noqa: F401" in line for line in statement)
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0],
                      exempt) for alias in node.names]
    return imported, used


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name that the source never reads."""
    imported, used = _imports(source)
    return [f"{line}: {name}" for line, name, exempt in imported
            if not exempt and name not in used]


def stale_exemptions(source: str, patchers: list[str]) -> list[str]:
    """``"line: name"`` for each ``# noqa: F401`` import that the source
    reads, or that none of ``patchers`` names: the exemption is for a
    name kept only so that other code can patch it."""
    imported, used = _imports(source)
    return [f"{line}: {name}" for line, name, exempt in imported
            if exempt and (name in used or not any(
                re.search(rf"\b{name}\b", text) for text in patchers))]


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


def test_modules_exempt_only_patched_names():
    patchers = [path.read_text()
                for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    found = {path.name: stale_exemptions(path.read_text(), patchers)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert "cli.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_guard_flags_a_stale_exemption():
    source = ("from itertools import (  # noqa: F401\n"
              "    groupby, islice)\n"
              "from operator import attrgetter  # noqa: F401\n"
              "from functools import reduce  # noqa: F401\n"
              "rows = list(islice('ab', 1))\n")
    patchers = ["patch(module, 'attrgetter')", "groupby"]
    assert stale_exemptions(source, patchers) == ["1: islice", "4: reduce"]


def third_party_imports(source: str) -> list[str]:
    """``"line: module"`` for each absolute import of a module that is not
    in the standard library (relative imports stay inside the package)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {module}" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_modules_import_only_the_standard_library():
    found = {path.name: third_party_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "halting.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_guard_flags_a_third_party_import():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy.linalg\n"
              "from . import lang\n"
              "from .vm import classify\n"
              "def size():\n"
              "    from sympy import log\n"
              "    from decimal import Context\n")
    assert third_party_imports(source) == ["2: numpy.linalg", "6: sympy"]


def dead_definitions(source: str, others: list[str]) -> list[str]:
    """``"line: name"`` for each top-level ``def`` or ``class`` of the
    source that neither the rest of it nor any of ``others`` names."""
    lines = source.splitlines()
    dead = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
        pattern = re.compile(rf"\b{node.name}\b")
        if not any(map(pattern.search, [rest, *others])):
            dead.append(f"{node.lineno}: {node.name}")
    return dead


def test_modules_define_nothing_dead():
    texts = {path: path.read_text()
             for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    found = {path.name: dead_definitions(
                 text, [other for p, other in texts.items() if p != path])
             for path, text in texts.items()
             if path.parent == SRC and path.name != "__init__.py"}
    assert "explorer.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_guard_flags_a_dead_definition():
    source = ("from functools import cache\n"
              "def _task(task):\n"
              "    return _task(task[1:]) if task else ()\n"
              "@cache\n"
              "def _helper():\n"
              "    pass\n"
              "class Kept:\n"
              "    pass\n"
              "def _summary_task():\n"
              "    return _helper()\n")
    assert dead_definitions(source, ["Kept()", "_summary_task"]) == \
        ["2: _task"]
