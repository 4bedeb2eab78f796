"""Hash-consed expressions: interning, cached facts, renaming, bad input."""

import copy
import gc
import pickle
import time
import weakref

import pytest

from ntpboost.errors import ValidationError
from ntpboost.rnn import expr as X
from ntpboost.rnn.expr import (
    Const,
    Node,
    Prod,
    Recip,
    Relu,
    depth,
    free_nodes,
    from_sexpr,
    ind_eq,
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
        # equality stays structural, with floats compared by value
        assert pos == neg and hash(pos) == hash(neg)
        assert Const(0.0) == Const(-0.0)
        for e, text in [
            (pos, "(relu 0.0 (1.0 (node x)))"),
            (neg, "(relu -0.0 (1.0 (node x)))"),
            (Const(-0.0), "(const -0.0)"),
        ]:
            assert to_sexpr(e) == text
            back = from_sexpr(text)
            assert back is e
            assert to_sexpr(back) == text

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
        assert any(v is e for v in X._INTERNED.values())
        del e
        gc.collect()
        assert probe() is None
        assert not any(
            "interning_probe" in free_nodes(v) for v in list(X._INTERNED.values())
        )

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
