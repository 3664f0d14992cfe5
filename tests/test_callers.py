"""Every module-level function and class in ``src/gridcast`` has a caller outside the tests.

A name counts as used when code under ``src/``, ``scripts/`` or
``perfbench/`` refers to it (as a name, an attribute, an import or a
string, since the benchmark's tracer patches functions by their names),
or when ``pyproject.toml`` names it, as it does the console entry point.
Its own ``def`` or ``class`` line does not count.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gridcast"


def referenced_names() -> set[str]:
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (REPO / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    names.update(re.findall(r"\w+", (REPO / "pyproject.toml").read_text(encoding="utf-8")))
    return names


def test_every_top_level_function_and_class_has_a_non_test_caller():
    used = referenced_names()
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert unused == []
