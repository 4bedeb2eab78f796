"""The brute-force oracles stay independent of the code they check."""

import ast
from pathlib import Path


def test_oracles_import_no_ntpboost_module():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "expected oracles.py to import something"
    offending = [
        m for m in imported if m.startswith(".") or m.split(".")[0] == "ntpboost"
    ]
    assert offending == []
