"""Every module of the package is reachable from the console entry point,
and every definition in it is used somewhere.

No linter is declared, so dead code is found here, with ``ast``: the
module test follows ``import`` and ``from ... import`` statements,
starting at the module of the ``[project.scripts]`` entry in
``pyproject.toml``; the definition test looks each top-level function,
class and constant up among the names and attributes read anywhere in
``src/``, ``tests/`` and ``benchmarks/``, and each method among the
attributes only.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


def module_files() -> dict[str, Path]:
    files = {}
    for path in (SOURCE / "ntpboost").rglob("*.py"):
        parts = path.relative_to(SOURCE).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return files


def with_parents(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[:j]) for j in range(1, len(parts) + 1)]


def imported(name: str, path: Path) -> set[str]:
    """Every module the imports of module ``name`` may load, parents included."""
    package = name.split(".") if path.name == "__init__.py" else name.split(".")[:-1]
    named = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            named += [source] + [f"{source}.{alias.name}" for alias in node.names]
    return {m for name in named for m in with_parents(name)}


def test_every_module_is_reachable_from_the_entry_point():
    # the console script line, ``ntpboost = "<module>:<function>"``
    pyproject = (ROOT / "pyproject.toml").read_text()
    entry = re.search(r'^ntpboost = "([\w.]+):', pyproject, re.M).group(1)
    files = module_files()
    reached, todo = set(), with_parents(entry)
    while todo:
        name = todo.pop()
        if name in files and name not in reached:
            reached.add(name)
            todo += imported(name, files[name])
    assert entry in reached
    assert sorted(set(files) - reached) == []


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def constant_names(node) -> list[str]:
    """Names a top-level ``X = ...``, ``X: T = ...`` or ``A, B = ...`` binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def test_every_definition_is_referenced():
    # top-level functions, classes and constants, and methods other than
    # dunders (those the language calls): a definition is not a reference,
    # so a name read nowhere else is dead.  A method is read only through
    # an attribute (``obj.method``): a local variable of the same name
    # does not keep it alive
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, methods = [], []
    for name, path in sorted(module_files().items()):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append(f"{name}.{node.name}")
            if isinstance(node, ast.ClassDef):
                methods += [
                    f"{name}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, functions) and not is_dunder(method.name)
                ]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined += [
                    f"{name}.{c}" for c in constant_names(node) if not is_dunder(c)
                ]
    names, attributes = set(), set()
    for folder in ("src", "tests", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    read = names | attributes
    unread = [d for d in defined if d.rsplit(".", 1)[1] not in read]
    unread += [m for m in methods if m.rsplit(".", 1)[1] not in attributes]
    assert unread == []
