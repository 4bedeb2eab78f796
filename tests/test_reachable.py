"""Every module of the package is reachable from the console entry point.

No linter is declared, so dead modules are found here: the test follows
``import`` and ``from ... import`` statements with ``ast``, starting at
the module of the ``[project.scripts]`` entry in ``pyproject.toml``.
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
