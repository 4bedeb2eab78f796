"""Transition-function library: exact agreement with the math definitions."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntpboost.errors import ValidationError
from ntpboost.rnn.expr import (
    Node,
    and_,
    base_c_increment,
    case_select,
    cycle,
    depth,
    evaluate,
    exp_binary,
    free_nodes,
    from_sexpr,
    hold,
    ind_eq,
    ind_ge,
    ind_le,
    lnot,
    or_,
    relu,
    saturate,
    to_sexpr,
)


def ev(expr, **values):
    return evaluate(expr, values)


class TestIndicators:
    def test_eq_examples(self):
        e = ind_eq("x", 3.0)
        assert ev(e, x=3.0) == 1.0
        assert ev(e, x=2.5) == 0.0
        assert ev(e, x=2.0) == 0.0

    def test_eq_exhaustive_integers(self):
        for c in range(-3, 12):
            e = ind_eq("x", float(c))
            for x in range(-5, 20):
                assert ev(e, x=float(x)) == (1.0 if x == c else 0.0)

    def test_le_ge_exhaustive_integers(self):
        for c in range(0, 9):
            le = ind_le("x", float(c))
            ge = ind_ge("x", float(c))
            for x in range(-4, 14):
                assert ev(le, x=float(x)) == (1.0 if x <= c else 0.0)
                assert ev(ge, x=float(x)) == (1.0 if x >= c else 0.0)

    def test_large_integer_domain(self):
        # counters reach ~10^6 in big builds; indicators must stay exact
        e = ind_eq("x", 1048575.0)
        assert ev(e, x=1048575.0) == 1.0
        assert ev(e, x=1048574.0) == 0.0

    def test_eq_between_two_nodes(self):
        e = ind_eq("x", "y")
        assert e is ind_eq(Node("x"), Node("y"))
        # the g module's per-slot agreement compiles to exactly this
        assert to_sexpr(e) == (
            "(relu 1.0 (-4294967296.0 (relu 0.0 (1.0 (node x)) (-1.0 (node y)))) "
            "(-4294967296.0 (relu 0.0 (1.0 (node y)) (-1.0 (node x)))))"
        )
        for x, y in product(range(-4, 9), repeat=2):
            assert ev(e, x=float(x), y=float(y)) == float(x == y)

    @settings(max_examples=300)
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_indicators_hypothesis(self, x, c):
        eq = ind_eq("x", float(c))
        le = ind_le("x", float(c))
        assert ev(eq, x=float(x)) == float(x == c)
        assert ev(le, x=float(x)) == float(x <= c)


class TestBooleans:
    def test_or_and_not_exhaustive(self):
        for width in (1, 2, 3, 4):
            names = [f"b{j}" for j in range(width)]
            e_or = or_(*names)
            e_and = and_(*names)
            for bits in product((0.0, 1.0), repeat=width):
                vals = dict(zip(names, bits))
                assert ev(e_or, **vals) == float(any(bits))
                assert ev(e_and, **vals) == float(all(bits))
        e_not = lnot("b")
        assert ev(e_not, b=0.0) == 1.0
        assert ev(e_not, b=1.0) == 0.0


class TestIfElse:
    def test_eq_selector(self):
        e = case_select([(ind_eq("b", 2.0), Node("x"))], Node("y"))
        assert ev(e, b=2.0, x=7.0, y=9.0) == 7.0
        assert ev(e, b=1.0, x=7.0, y=9.0) == 9.0

    def test_le_selector(self):
        e = case_select([(ind_le("b", 4.0), Node("x"))], Node("y"))
        assert ev(e, b=4.0, x=1.5, y=2.5) == 1.5
        assert ev(e, b=5.0, x=1.5, y=2.5) == 2.5


def steps(expr, x0, gates):
    """The values a counter node takes from ``x0``, one step per gate bit;
    the gate is the node ``g``."""
    xs = [x0]
    for g in gates:
        xs.append(ev(expr, x=float(xs[-1]), g=float(g)))
    return xs


class TestCounters:
    """``cycle`` and ``saturate`` against plain Python counters, from every
    reachable value (1..top, 1..cap) under every gate sequence of length 4.

    The constructions' counters once carried extra cases (u0 wrapping
    through a second ``u0 == k`` case, vc reset to i0 + 1 past the cap);
    on reachable values they never fired, and these tests pin that.
    """

    SEQUENCES = list(product((0, 1), repeat=4))

    @pytest.mark.parametrize("top", range(1, 7))
    def test_cycle(self, top):
        e = cycle("x", top)
        for x0 in range(1, top + 1):
            want = [x0]
            for _ in range(2 * top):
                want.append(want[-1] % top + 1)
            assert steps(e, x0, [0] * 2 * top) == want

    @pytest.mark.parametrize("top", range(1, 7))
    def test_gated_cycle(self, top):
        e = cycle("x", top, Node("g"))
        for x0, gates in product(range(1, top + 1), self.SEQUENCES):
            want = [x0]
            for g in gates:
                want.append(want[-1] % top + 1 if g else want[-1])
            assert steps(e, x0, gates) == want

    @pytest.mark.parametrize("cap", range(1, 7))
    def test_saturate(self, cap):
        e = saturate("x", cap, Node("g"))
        for x0, gates in product(range(1, cap + 1), self.SEQUENCES):
            want = [x0]
            for g in gates:
                want.append(want[-1] + 1 if g and want[-1] < cap else want[-1])
            assert steps(e, x0, gates) == want

    def test_hold_is_a_case_select_defaulting_to_the_node(self):
        cases = [(ind_eq("b", 2.0), Node("y")), (Node("c"), relu(1.0, (1.0, "x")))]
        assert hold("x", cases) is case_select(cases, Node("x"))
        assert ev(hold("x", cases), b=2.0, c=1.0, x=5.0, y=3.0) == 3.0
        assert ev(hold("x", cases), b=0.0, c=1.0, x=5.0, y=3.0) == 6.0
        assert ev(hold("x", cases), b=0.0, c=0.0, x=5.0, y=3.0) == 5.0


class TestBaseCIncrement:
    @pytest.mark.parametrize("c,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_increments_whole_cycle(self, c, k):
        digits = [f"d{j}" for j in range(k)]
        exprs = base_c_increment(c, k, digits)
        value = [0] * k  # little-endian digit vector
        seen = []
        for _ in range(c**k + 2):
            seen.append(int(sum(d * c**j for j, d in enumerate(value))))
            vals = {f"d{j}": float(value[j]) for j in range(k)}
            value = [int(ev(e, **vals)) for e in exprs]
        want = [j % c**k for j in range(c**k + 2)]
        assert seen == want

    def test_paper_example(self):
        # (x1,x2,x3) = (1,1,0) in base 2 is value 3; incrementing gives
        # (0,0,1), value 4
        exprs = base_c_increment(2, 3, ["a", "b", "c"])
        out = [ev(e, a=1.0, b=1.0, c=0.0) for e in exprs]
        assert out == [0.0, 0.0, 1.0]

    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            base_c_increment(2, 3, ["a"])


class TestExpBinary:
    def test_endpoints_exact(self):
        for alpha in (0.3, -0.8, 1.0, 0.0, -1.0, 0.05):
            e = exp_binary(alpha, "x")
            assert ev(e, x=0.0) == 1.0
            assert ev(e, x=1.0) == math.exp(alpha)


class TestExprPlumbing:
    def test_free_nodes_and_depth(self):
        e = case_select([(ind_eq("flag", 1.0), Node("u"))], Node("v"))
        assert free_nodes(e) == {"flag", "u", "v"}
        assert depth(e) <= 8

    def test_sexpr_round_trip(self):
        exprs = [
            ind_eq("x", 3.0),
            exp_binary(-0.37, "bit"),
            or_("a", "b", "c"),
            Node("plain"),
        ]
        for e in exprs:
            text = to_sexpr(e)
            back = from_sexpr(text)
            assert back == e, text

    def test_sexpr_rejects_garbage(self):
        with pytest.raises(ValidationError):
            from_sexpr("(sigmoid 1.0)")
