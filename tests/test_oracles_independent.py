"""The brute-force oracles stay independent of the code they check, and
the constructions write each circuit shape once."""

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


def test_doubling_construction_builds_no_enumerated_component():
    # the doubling construction checks build_boosted_rnn, so it may share
    # the scaffold, g and the combiner, but never the enumerator or the f1
    # and f2 parts, directly or through a helper of its module
    import inspect

    from ntpboost.construct import boosted

    tree = ast.parse(inspect.getsource(boosted))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    roots = ["build_boosted_rnn_simple", "_full_copy_main", "_full_copy_scratch"]
    names, todo = set(), roots
    while todo:
        fn = defs[todo.pop()]
        for node in ast.walk(fn):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in defs and name not in names and name != fn.name:
                todo.append(name)
            if name is not None:
                names.add(name)
    assert "_combiner_nodes" in names  # the walk follows module helpers
    assert names.isdisjoint({"enumerator_part", "f1_part", "f2_part"})


def test_table_compilers_share_one_term_rule():
    # which cells become terms and which latches a term matches is written
    # once, in _table_terms; a compiler that matched latches itself would
    # fork the rule again
    import inspect

    from ntpboost.construct import lm_compile

    tree = ast.parse(inspect.getsource(lm_compile))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for root in ("lm_to_rnn", "distinguisher_to_rnn"):
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(defs[root])
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "_table_terms" in names, root
        assert names.isdisjoint({"token_strings", "_prefix_match"}), root


def test_constructions_build_every_latch_and_counter_from_gadgets():
    # a node that keeps its value unless a case fires is ``hold``, and a
    # counter is ``cycle`` or ``saturate``: no construction spells out its
    # own first-match chain
    from ntpboost import construct

    folder = Path(construct.__file__).parent
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        names |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "case_select" not in names, path.name
