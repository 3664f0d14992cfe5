"""Every module-level function and class in ``src/gridcast`` has a caller outside the tests,
and every dataclass field there has a reader.

A name counts as used when code under ``src/``, ``scripts/`` or
``perfbench/`` refers to it (as a name, an attribute, an import or a
string, since the benchmark's tracer patches functions by their names),
or when ``pyproject.toml`` names it, as it does the console entry point.
Its own ``def`` or ``class`` line does not count. A field counts as read
when that code loads it as an attribute (``obj.field``).
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gridcast"


def non_test_nodes():
    for folder in ("src", "scripts", "perfbench"):
        for path in (REPO / folder).rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def package_top_level():
    """``(path, node)`` for each top-level statement of ``src/gridcast``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, node


def referenced_names() -> set[str]:
    names = set()
    for node in non_test_nodes():
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
    unused = [f"{path.name}:{node.lineno} {node.name}" for path, node in package_top_level()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert unused == []


def test_every_dataclass_field_is_read_outside_the_tests():
    read = {node.attr for node in non_test_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{field.lineno} {node.name}.{field.target.id}"
              for path, node in package_top_level()
              if isinstance(node, ast.ClassDef)
              and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
              for field in node.body
              if isinstance(field, ast.AnnAssign) and field.target.id not in read]
    assert unread == []
