"""Rules on the library source that keep two promises: checks survive
`python -O` (no assert), and the CLI turns every failure into a JSON error
(every raise is of a DichromaError subclass, which `cli.main` catches).
A third keeps every module's dependencies in its header: no import sits
inside a function.  A fourth keeps handlers narrow: no `except` is bare or
catches Exception or BaseException, which would swallow programming errors
and interrupts along with the toolkit's own.  A fifth keeps each module's
private names its own: no module imports an underscore name from another,
so a helper two modules share is a public primitive."""

import ast
import builtins
import importlib
import pathlib

import dichroma
from dichroma.errors import DichromaError

SOURCES = sorted(pathlib.Path(dichroma.__file__).parent.glob("*.py"))


def _resolve(node, namespace):
    """The object a Name or dotted Attribute expression names, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, namespace)
        return getattr(base, node.attr, None)
    return None


def _violations(path):
    module = importlib.import_module(f"dichroma.{path.stem}")
    namespace = vars(module)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Assert):
            yield f"{where}: assert is stripped by python -O"
        elif isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = _resolve(exc, namespace) if exc is not None else None
            if not (isinstance(cls, type) and issubclass(cls, DichromaError)):
                yield f"{where}: raises {ast.unparse(exc) if exc else 'bare'}, not a DichromaError"


def test_no_assert_and_only_toolkit_errors_raised():
    assert {p.stem for p in SOURCES} >= {"cli", "core", "errors", "families"}
    found = [v for path in SOURCES for v in _violations(path)]
    assert found == []


def _function_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield f"{path.name}:{inner.lineno}: import inside {node.name}"


def test_no_import_inside_a_function():
    found = sorted({v for path in SOURCES for v in _function_imports(path)})
    assert found == []


def _broad_handlers(path):
    namespace = {**vars(builtins), **vars(importlib.import_module(f"dichroma.{path.stem}"))}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        where = f"{path.name}:{node.lineno}"
        if node.type is None:
            yield f"{where}: bare except"
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            if _resolve(exc, namespace) in (Exception, BaseException):
                yield f"{where}: catches {ast.unparse(exc)}"


def test_no_bare_or_catch_all_except():
    found = [v for path in SOURCES for v in _broad_handlers(path)]
    assert found == []


def _private_imports(path):
    """Underscore names a module takes from another dichroma module: by
    `from .x import _name`, or as `x._name` on a module it imported."""
    modules = set()  # local names bound to dichroma modules
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "dichroma"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno}: imports {alias.name}"
                elif node.module in (None, "dichroma"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dichroma":
                    if any(part.startswith("_") for part in alias.name.split(".")):
                        yield f"{path.name}:{node.lineno}: imports {alias.name}"
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            yield f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}"


def test_no_private_name_imported_across_modules():
    found = [v for path in SOURCES for v in _private_imports(path)]
    assert found == []
