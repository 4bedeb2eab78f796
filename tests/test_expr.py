"""Hash-consed expressions: interning, cached facts, renaming, bad input."""

import copy
import gc
import pickle
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ntpboost.errors import ValidationError
from ntpboost.rnn import expr as X
from ntpboost.rnn.expr import (
    Const,
    Node,
    Prod,
    Recip,
    Relu,
    case_select,
    const,
    depth,
    free_nodes,
    from_sexpr,
    ind_eq,
    ind_ge,
    ind_le,
    node,
    prod,
    recip,
    relu,
    substitute,
    to_sexpr,
)


def tree_depth(e):
    """Operator depth by a plain recursive walk, independent of the cache."""
    if isinstance(e, (Const, Node)):
        return 0
    children = e.factors if isinstance(e, Prod) else [c for _, c in e.terms]
    return 1 + max((tree_depth(c) for c in children), default=0)


def tree_free(e):
    if isinstance(e, Const):
        return set()
    if isinstance(e, Node):
        return {e.name}
    children = e.factors if isinstance(e, Prod) else [c for _, c in e.terms]
    return set().union(*(tree_free(c) for c in children))


def distinct_objects(*roots):
    """Number of distinct expression objects reachable from ``roots``."""
    seen = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            if isinstance(e, Prod):
                stack.extend(e.factors)
            elif isinstance(e, (Relu, Recip)):
                stack.extend(c for _, c in e.terms)
    return len(seen)


def doubling_chain(levels, leaf="x"):
    """A DAG of ``levels`` sums, each reading the previous one twice: its
    tree expansion has 2**levels leaves."""
    e = Node(leaf)
    for j in range(levels):
        e = relu(float(j), (1.0, e), (0.5, e))
    return e


class TestInterning:
    def test_equal_structures_are_one_object(self):
        assert Node("x") is Node("x")
        assert Const(2.5) is Const(2.5)
        assert relu(1.0, (2.0, "x")) is Relu(1.0, ((2.0, Node("x")),))
        assert recip(1.0, (1.0, "y")) is recip(1.0, (1.0, "y"))
        assert prod("a", "b") is Prod((Node("a"), Node("b")))
        assert ind_eq("x", 3.0) is ind_eq("x", 3.0)
        e = ind_eq("x", 3.0)
        assert from_sexpr(to_sexpr(e)) is e

    def test_different_structures_are_different_objects(self):
        assert relu(1.0, (2.0, "x")) is not recip(1.0, (2.0, "x"))
        assert relu(1.0, (2.0, "x")) != recip(1.0, (2.0, "x"))
        assert prod("a", "b") is not prod("b", "a")
        assert relu(1.0, (2.0, "x")) != relu(1.0, (2.0, "y"))

    def test_signed_zeros_stay_two_objects(self):
        x = Node("x")
        pos, neg = Relu(0.0, ((1.0, x),)), Relu(-0.0, ((1.0, x),))
        assert pos is not neg
        assert Const(0.0) is not Const(-0.0)
        assert Relu(1.0, ((0.0, x),)) is not Relu(1.0, ((-0.0, x),))
        # equality is identity: the twins compare unequal
        assert pos != neg
        assert Const(0.0) != Const(-0.0)
        for e, text in [
            (pos, "(relu 0.0 (1.0 (node x)))"),
            (neg, "(relu -0.0 (1.0 (node x)))"),
            (Const(-0.0), "(const -0.0)"),
        ]:
            assert to_sexpr(e) == text
            back = from_sexpr(text)
            assert back is e
            assert to_sexpr(back) == text

    def test_equality_is_identity(self):
        # no class compares or hashes by structure: the interned object is
        # the only identity, and one weak table holds nodes and gadgets
        kinds = [X.Expr, *X.Expr.__subclasses__(), *X._WeightedSum.__subclasses__()]
        for kind in kinds:
            assert "__eq__" not in vars(kind) and "__hash__" not in vars(kind)
        assert "_hash" not in X.Expr.__slots__
        assert not hasattr(X, "_GADGETS")

    def test_fields_are_normalized_to_float(self):
        assert Relu(1, ((2, Node("x")),)) is relu(1.0, (2.0, "x"))
        assert to_sexpr(Const(3)) == "(const 3.0)"

    def test_deepcopy_and_pickle_give_an_equal_expression(self):
        e = prod(ind_eq("x", 2.0), recip(1.0, (1.0, "y")), Const(-0.0))
        for back in (copy.deepcopy(e), copy.copy(e), pickle.loads(pickle.dumps(e))):
            assert back == e
            assert back is e
            assert to_sexpr(back) == to_sexpr(e)

    def test_dropped_expressions_leave_the_table(self):
        e = relu(0.25, (3.0, "interning_probe"), (1.0, Const(7.0)))
        probe = weakref.ref(e)
        # the table holds weak references
        assert any(ref() is e for ref in X._INTERNED.values())
        del e
        gc.collect()
        assert probe() is None
        live = [ref() for ref in X._INTERNED.values()]
        assert None not in live  # an entry leaves with its expression
        assert not any("interning_probe" in free_nodes(v) for v in live)

    def test_equal_gadget_arguments_give_one_object(self):
        for gadget in (ind_eq, ind_le, ind_ge):
            e = gadget("x", 3.0)
            assert gadget(Node("x"), 3.0) is e
            assert gadget("x", 3) is e
            assert gadget(Node("x"), 3) is e
            assert gadget("x", 0) is gadget("x", 0.0)
            assert gadget("x", 4.0) is not e
            assert gadget("y", 3.0) is not e
        assert ind_eq("x", "y") is ind_eq(Node("x"), "y") is ind_eq("x", Node("y"))
        assert ind_eq("x", "y") is not ind_eq("y", "x")
        # a gadget is the expression its relus build, not a copy of it
        inv = 1.0 / X.MACHINE_EPS
        built = relu(1.0, (-inv, relu(-3.0, (1.0, "x"))), (-inv, relu(3.0, (-1.0, "x"))))
        assert ind_eq("x", 3.0) is built

    def test_signed_zero_gadgets_stay_two_objects(self):
        for gadget in (ind_eq, ind_le, ind_ge):
            pos, neg = gadget("x", 0.0), gadget("x", -0.0)
            assert pos is not neg
            assert pos != neg  # equality is identity
            assert to_sexpr(pos) != to_sexpr(neg)
            assert from_sexpr(to_sexpr(neg)) is neg

    def test_dropped_gadgets_leave_the_table(self):
        def entries(name):
            # one table: gadget keys begin with the build function, class
            # keys with a class
            live = [ref() for key, ref in X._INTERNED.items() if not isinstance(key[0], type)]
            assert None not in live  # an entry leaves with its gadget
            return [g for g in live if name in free_nodes(g)]

        before = len(X._INTERNED)
        gadgets = [ind_eq("gadget_probe", 5.0), ind_le("gadget_probe", 2.0)]
        gadgets.append(ind_ge("gadget_probe", 1.0))
        gadgets.append(ind_eq("gadget_probe", "gadget_other"))
        assert len(entries("gadget_probe")) == 4
        probes = [weakref.ref(g) for g in gadgets]
        del gadgets
        gc.collect()
        assert all(p() is None for p in probes)
        assert entries("gadget_probe") == []
        # building and dropping many gadgets leaves the table as it was
        for c in range(500):
            ind_eq("gadget_probe", float(c))
        gc.collect()
        assert len(X._INTERNED) == before

    def test_expressions_are_immutable(self):
        e = relu(1.0, (1.0, "x"))
        with pytest.raises(AttributeError):
            e.bias = 2.0
        with pytest.raises(AttributeError):
            del e.terms


class TestCachedFacts:
    def test_depth_and_free_nodes_match_tree_walks(self):
        exprs = [
            Node("a"),
            Const(1.0),
            Relu(2.0, ()),
            ind_eq(prod("a", "b"), 1.0),
            prod(recip(1.0, (1.0, "c")), ind_eq("a", 0.0), "d"),
            doubling_chain(6),
        ]
        for e in exprs:
            assert depth(e) == tree_depth(e)
            assert free_nodes(e) == tree_free(e)
            assert isinstance(free_nodes(e), frozenset)

    def test_facts_of_a_deep_dag_cost_no_tree_walk(self):
        e = doubling_chain(60)  # 2**60 leaves as a tree
        assert depth(e) == 60
        assert free_nodes(e) == {"x"}

    def test_free_nodes_of_a_wide_sum_take_one_union(self):
        # 20,000 distinct names: one new set per child took 6.5 s here
        names = [f"x{j}" for j in range(20_000)]
        start = time.perf_counter()
        e = relu(0.5, *((1.0, Node(n)) for n in names))
        assert time.perf_counter() - start < 2.0
        assert free_nodes(e) == set(names)

    def test_a_child_set_that_covers_the_rest_is_reused(self):
        wide = relu(0.0, (1.0, "a"), (1.0, "b"), (1.0, "c"))
        for e in (prod("a", wide), prod(wide, "b"), prod("a", "b", wide)):
            assert free_nodes(e) is free_nodes(wide)
        assert free_nodes(prod("a", "b", "a")) == {"a", "b"}

    def test_empty_product_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="at least one factor"):
            Prod(())
        with pytest.raises(ValidationError, match="at least one factor"):
            from_sexpr("(prod )")

    def test_non_expression_child_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown expression"):
            Relu(0.0, ((1.0, "x"),))
        with pytest.raises(ValidationError, match="unknown expression"):
            Prod((Node("x"), 2.0))


class TestBadArguments:
    @pytest.mark.parametrize("bad", [None, 2.0, 3, b"x", ("x",)])
    def test_a_node_is_a_name_or_an_expression(self, bad):
        builds = [
            lambda: node(bad),
            lambda: Node(bad),
            lambda: prod("x", bad),
            lambda: prod(bad, "x"),
            lambda: prod(bad),
            lambda: relu(0.0, (1.0, "x"), (2.0, bad)),
            lambda: recip(1.0, (1.0, bad)),
            lambda: case_select([(bad, "x")], "y"),
            lambda: case_select([("x", bad)], "y"),
            lambda: case_select([("x", "y")], bad),
            lambda: ind_eq(bad, 1.0),
            lambda: substitute(relu(0.0, (1.0, "x")), {"x": bad}),
        ]
        for build in builds:
            with pytest.raises(ValidationError, match="unknown expression"):
                build()

    @pytest.mark.parametrize(
        "build,bad",
        [
            (lambda: ind_eq("x", None), "None"),
            (lambda: ind_le("x", "y"), "'y'"),
            (lambda: ind_ge("x", [1.0]), r"\[1.0\]"),
            (lambda: relu(None, (1.0, "x")), "None"),
            (lambda: relu(0.0, ("a", "x")), "'a'"),
            (lambda: recip(1.0, (1.0, "x"), (None, "y")), "None"),
            (lambda: Relu(0.0, [(1.0, Node("x")), ("b", Node("y"))]), "'b'"),
            (lambda: Const("abc"), "'abc'"),
            (lambda: const(None), "None"),
        ],
    )
    def test_a_number_is_a_float(self, build, bad):
        with pytest.raises(ValidationError, match=f"expected a number, got {bad}$"):
            build()

    @pytest.mark.parametrize("term", [5, (1.0,), (1.0, "x", "y")])
    def test_a_term_is_a_pair(self, term):
        with pytest.raises(ValidationError, match="expected a .coefficient, expression. pair"):
            relu(0.0, (1.0, "x"), term)


# -- the hash/eq contract, over expressions built every way -------------------

FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])


def _extend(children):
    terms = st.lists(st.tuples(FLOATS, children), max_size=3)
    return st.one_of(
        st.tuples(st.sampled_from(["relu", "recip"]), FLOATS, terms),
        st.tuples(st.just("prod"), st.lists(children, min_size=2, max_size=3)),
    )


# ("const", v) | ("node", name) | (relu|recip, bias, [(coef, spec)]) |
# ("prod", [spec, spec, ...])
SPECS = st.recursive(
    st.one_of(
        st.tuples(st.just("const"), FLOATS),
        st.tuples(st.just("node"), st.sampled_from(["a", "b", "c"])),
    ),
    _extend,
    max_leaves=12,
)


def by_helpers(spec, rename=str):
    """The expression through the helpers; a node child goes in by name."""

    def arg(s):
        return rename(s[1]) if s[0] == "node" else by_helpers(s, rename)

    kind = spec[0]
    if kind == "const":
        return const(spec[1])
    if kind == "node":
        return node(rename(spec[1]))
    if kind == "prod":
        return prod(*[arg(s) for s in spec[1]])
    return (relu if kind == "relu" else recip)(spec[1], *[(c, arg(s)) for c, s in spec[2]])


def by_classes(spec):
    kind = spec[0]
    if kind == "const":
        return Const(spec[1])
    if kind == "node":
        return Node(spec[1])
    if kind == "prod":
        return Prod(tuple(by_classes(s) for s in spec[1]))
    cls = Relu if kind == "relu" else Recip
    return cls(spec[1], [(c, by_classes(s)) for c, s in spec[2]])


def flip_zeros(spec):
    """The spec with every 0.0 and -0.0 swapped: equal by value, not by bits."""

    def f(x):
        return -x if x == 0.0 else x

    kind = spec[0]
    if kind == "const":
        return (kind, f(spec[1]))
    if kind == "node":
        return spec
    if kind == "prod":
        return (kind, [flip_zeros(s) for s in spec[1]])
    return (kind, f(spec[1]), [(f(c), flip_zeros(s)) for c, s in spec[2]])


def has_zero(spec) -> bool:
    kind = spec[0]
    if kind == "const":
        return spec[1] == 0.0
    if kind == "node":
        return False
    if kind == "prod":
        return any(has_zero(s) for s in spec[1])
    return spec[1] == 0.0 or any(c == 0.0 or has_zero(s) for c, s in spec[2])


class TestIdentityContract:
    @given(SPECS)
    def test_every_construction_path_agrees(self, spec):
        e = by_helpers(spec)
        # equal bits give the same object, however it is built
        assert by_classes(spec) is e
        renamed = substitute(by_helpers(spec, str.upper), {"A": "a", "B": "b", "C": "c"})
        assert renamed is e
        assert from_sexpr(to_sexpr(e)) is e
        # signed zeros: two objects iff bits differ, and equal iff one object
        twin = by_classes(flip_zeros(spec))
        assert (twin is e) is not has_zero(spec)
        assert (twin == e) is (e == twin) is (twin is e)
        for x in (e, twin):
            assert depth(x) == tree_depth(x)
            assert free_nodes(x) == tree_free(x)


class TestSubstitute:
    def test_renames_free_nodes(self):
        e = prod(ind_eq("a", 1.0), relu(0.5, (2.0, "b")), Const(1.0))
        out = substitute(e, {"a": "z"})
        assert out is prod(ind_eq("z", 1.0), relu(0.5, (2.0, "b")), Const(1.0))
        assert free_nodes(out) == {"z", "b"}

    def test_returns_input_when_no_mapped_name_is_free(self):
        e = prod(ind_eq("a", 1.0), relu(0.5, (2.0, "b")))
        assert substitute(e, {"q": "z", "r": "a"}) is e
        assert substitute(e, {}) is e

    def test_keeps_sharing(self):
        e = doubling_chain(60)
        out = substitute(e, {"x": "y"})
        assert out is doubling_chain(60, leaf="y")
        assert distinct_objects(out) == distinct_objects(e) == 61


class TestFromSexpr:
    @pytest.mark.parametrize(
        "text",
        [
            "(const abc)",
            "(relu x)",
            "(",
            "(const 1.0",
            "(node)",
            "(relu nan)",
            "(const inf)",
            "(const -inf)",
            "(recip 0.0 (nan (node a)))",
            "(relu 0.0 (1.0 (node a))",
            "(const 1.0) (const 2.0)",
            "",
        ],
    )
    def test_malformed_text_is_a_validation_error(self, text):
        with pytest.raises(ValidationError):
            from_sexpr(text)

    def test_negative_zero_parses(self):
        e = from_sexpr("(relu -0.0 (1.0 (const -0.0)))")
        assert e is relu(-0.0, (1.0, Const(-0.0)))
        assert to_sexpr(e) == "(relu -0.0 (1.0 (const -0.0)))"

    def test_round_trips_every_operator(self):
        e = recip(
            0.25,
            (1.0, prod(ind_eq("a", 2.0), Node("b"))),
            (-3.5, relu(-0.0, (2.0, Const(1e-300)))),
        )
        text = to_sexpr(e)
        assert from_sexpr(text) is e
        assert to_sexpr(from_sexpr(text)) == text
        assert to_sexpr(from_sexpr("(recip 1.0)")) == "(recip 1.0)"

    def test_long_sums_parse_in_linear_time(self):
        # 20,000 terms: a token-list-slicing parser takes minutes here
        e = relu(0.5, *((float(j), Node(f"x{j % 50}")) for j in range(20_000)))
        text = to_sexpr(e)
        start = time.perf_counter()
        assert from_sexpr(text) is e
        assert time.perf_counter() - start < 10.0
