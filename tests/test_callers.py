"""Every module-level function and class in ``src/gridcast`` has a caller outside the tests,
every dataclass field there has a reader, every defaulted parameter there is passed,
every parameter there is read by its own function, every name a module there imports
is used in that module, only ``cli.py`` and ``data.py`` open or write files, only the
functions where values enter the program convert them to float64, and every
``RunConfig`` field has a flag that some user of the CLI passes.

A name counts as used when code under ``src/``, ``scripts/`` or
``perfbench/`` refers to it (as a name, an attribute, an import or a
string, since the benchmark's tracer patches functions by their names),
or when ``pyproject.toml`` names it, as it does the console entry point.
Its own ``def`` or ``class`` line does not count. A field counts as read
when that code loads it as an attribute (``obj.field``). A defaulted
parameter counts as passed when that code calls a callee of its
function's name with it: by keyword, by position, or through a ``*`` or
``**`` splat. ``ClassName(...)`` calls ``__init__``, and so does
``cls(...)`` inside the class. A parameter counts as read when its
function's body, nested functions included, loads its name or updates it
in place (``param -= step`` reads ``param`` first). An imported name counts
as used when its module loads it or lists it in ``__all__``.
"""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

from gridcast.cli import RunConfig, build_parser

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


# "RegressionTree.__init__.min_leaf"-style labels of defaulted parameters that
# nothing outside the tests passes, each with the reason it stays
UNPASSED_DEFAULTS: dict[str, str] = {}


def non_test_calls():
    """``(callee name, call)`` for every call outside the tests."""
    for node in non_test_nodes():
        if isinstance(node, ast.Call):
            yield getattr(node.func, "id", getattr(node.func, "attr", None)), node
        elif isinstance(node, ast.ClassDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls":
                    yield node.name, call


def defaulted_parameters():
    """``(path, arg, label, callee, position)`` for each defaulted parameter of a
    module-level function or method of ``src/gridcast``. ``position`` is the
    parameter's index among the positional arguments a call writes, or None
    for a keyword-only one."""
    for path, node in package_top_level():
        if isinstance(node, ast.FunctionDef):
            methods = [(node, node.name, node.name, 0)]
        elif isinstance(node, ast.ClassDef):
            methods = [(item, f"{node.name}.{item.name}",
                        node.name if item.name == "__init__" else item.name,
                        0 if "staticmethod" in map(ast.unparse, item.decorator_list) else 1)
                       for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for func, label, callee, bound in methods:
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield path, arg, f"{label}.{arg.arg}", callee, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path, arg, f"{label}.{arg.arg}", callee, None


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = {}
    for callee, call in non_test_calls():
        calls.setdefault(callee, []).append(call)
    unpassed = [f"{path.name}:{arg.lineno} {label}"
                for path, arg, label, callee, position in defaulted_parameters()
                if label not in UNPASSED_DEFAULTS
                and not any(passes(call, arg.arg, position) for call in calls.get(callee, []))]
    assert unpassed == []


# "Dense.forward.training"-style labels of parameters their function never
# reads (``self``, ``cls`` and ``_``-prefixed names are exempt), each with the
# reason it stays; an ignored flag would silently change nothing
UNREAD_PARAMETERS: dict[str, str] = {}


def functions(node, prefix=""):
    """``(dotted name, def)`` for every function under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from functions(child, f"{name}.")
        else:
            yield from functions(child, prefix)


def test_every_parameter_is_read_by_its_function():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, func in functions(ast.parse(path.read_text(encoding="utf-8"))):
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            nodes = [node for stmt in func.body for node in ast.walk(stmt)]
            loaded = {node.id for node in nodes
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            loaded |= {node.target.id for node in nodes
                       if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
            unread += [f"{path.name}:{arg.lineno} {name}.{arg.arg}" for arg in params
                       if arg.arg not in ("self", "cls") and not arg.arg.startswith("_")
                       and arg.arg not in loaded
                       and f"{name}.{arg.arg}" not in UNREAD_PARAMETERS]
    assert unread == []


# the modules that touch files: cli.py writes every run artifact under --out-dir
# and reads the model and config files, data.py reads and writes the dataset CSV
FILE_MODULES = {"cli.py", "data.py"}
FILE_CALLS = {"open", "write_text", "write_bytes"}


def test_only_cli_and_data_open_files():
    calls = [f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in FILE_MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in FILE_CALLS]
    assert calls == []


# the functions that convert values to float64, each with the reason: values
# become float64 where they enter the program, and nothing behind these converts again
FLOAT64_CONVERTERS = {
    "network.py Network.forward": "exported: the windows it is handed",
    "network.py Network.backward": "exported: the loss gradient it is handed",
    "train.py fit": "exported: the train and validation sets",
    "data.py label_zero_state": "exported: the targets it is handed, and its 0/1 labels",
    "baselines.py knn_predict_batch": "hand-case tests and acceptance criterion 5 pass lists",
    "metrics.py regression_metrics": "hand-case tests and acceptance criterion 5 pass lists",
    "metrics.py classification_metrics": "hand-case tests and acceptance criterion 5 pass lists",
}
FLOAT64_SPELLINGS = {"np.float64", "float", "'float64'", "'f8'"}


def float64_conversion(call: ast.Call) -> bool:
    """``np.asarray(..., dtype=np.float64)`` or ``.astype(np.float64)``, the dtype
    spelled as in ``FLOAT64_SPELLINGS``."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    dtypes = [keyword.value for keyword in call.keywords if keyword.arg == "dtype"]
    if name == "asarray":
        dtypes += call.args[1:2]
    elif name == "astype":
        dtypes += call.args[:1]
    else:
        return False
    return any(ast.unparse(dtype) in FLOAT64_SPELLINGS for dtype in dtypes)


def float64_converters(node, prefix="", owner="<module>"):
    """The dotted name of the function around each float64 conversion under ``node``;
    a nested function is its own owner, and code outside any function is ``<module>``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from float64_converters(child, f"{prefix}{child.name}.", owner)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{child.name}"
            yield from float64_converters(child, f"{name}.", name)
        else:
            if isinstance(child, ast.Call) and float64_conversion(child):
                yield owner
            yield from float64_converters(child, prefix, owner)


def test_float64_conversions_only_where_values_enter():
    found = {f"{path.name} {owner}" for path in sorted(PACKAGE.glob("*.py"))
             for owner in float64_converters(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(found - FLOAT64_CONVERTERS.keys()) == []
    assert sorted(FLOAT64_CONVERTERS.keys() - found) == []


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {item.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                 for item in node.value.elts}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def user_flags() -> set[str]:
    """Every ``--flag`` that the acceptance criteria, ``scripts/``, ``perfbench/`` or a
    ``gridcast`` command line in README.md passes."""
    sources = [REPO / "tests" / "test_acceptance.py",
               *(REPO / "scripts").rglob("*.py"), *(REPO / "perfbench").rglob("*.py")]
    flags = {node.value for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith("--")}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    # a command line runs on over lines that end in a backslash
    for command in re.findall(r"^gridcast .*(?:\\\n.*)*", readme, re.MULTILINE):
        flags.update(re.findall(r"--[\w-]+", command))
    return flags


def test_every_run_setting_has_a_user():
    """A setting that no criterion, script, benchmark or documented run sets has one
    value in use, and belongs in the code as a constant."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for command in sub.choices.values():
        for action in command._actions:
            flags.setdefault(action.dest, set()).update(action.option_strings)
    used = user_flags()
    unset = [f"{field.name} ({', '.join(sorted(flags.get(field.name, ()))) or 'no flag'})"
             for field in fields(RunConfig) if not flags.get(field.name, set()) & used]
    assert unset == []
