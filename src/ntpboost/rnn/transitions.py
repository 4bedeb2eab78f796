"""Library of common transition functions built from relu/product/reciprocal.

Each constructor returns an expression (or a list of them) implementing
its mathematical definition exactly on the declared domain: indicator
inputs are integers, boolean inputs are bits, digit inputs lie in
[0, c-1].  ``build_transition`` is the keyword-dispatch front end.
"""

from __future__ import annotations

import math

from ..errors import ValidationError
from .expr import (
    Expr,
    ind_eq,
    ind_ge,
    ind_le,
    lnot,
    node,
    prod,
    relu,
)


def if_else(b, c: float, then_expr, else_expr, cmp: str = "eq") -> Expr:
    """then_expr if (b cmp c) else else_expr, branches nonnegative."""
    if cmp == "eq":
        gate = ind_eq(b, c)
    elif cmp == "le":
        gate = ind_le(b, c)
    elif cmp == "ge":
        gate = ind_ge(b, c)
    else:
        raise ValidationError(f"unknown comparison {cmp!r}")
    return relu(
        0.0,
        (1.0, prod(node(then_expr), gate)),
        (1.0, prod(node(else_expr), lnot(gate))),
    )


def or_(*xs) -> Expr:
    """OR of bits as [sum >= 1]."""
    total = relu(0.0, *[(1.0, node(x)) for x in xs])
    return ind_ge(total, 1.0)


def and_(*xs) -> Expr:
    """AND of bits as [sum >= count]."""
    total = relu(0.0, *[(1.0, node(x)) for x in xs])
    return ind_ge(total, float(len(xs)))


def not_(x) -> Expr:
    return lnot(node(x))


def base_c_increment(c: int, k: int, digits) -> list[Expr]:
    """Add one to a k-digit base-c number held in ``digits``.

    ``digits[0]`` is the least significant digit; each returned
    expression computes the new value of the corresponding digit:
    carry while lower digits are all c-1, wrap at c^k - 1.
    """
    if c < 2 or k < 1:
        raise ValidationError(f"need base >= 2 and width >= 1, got c={c}, k={k}")
    if len(digits) != k:
        raise ValidationError(f"need {k} digit nodes, got {len(digits)}")
    out = []
    for i in range(1, k + 1):
        lower = [(1.0, node(d)) for d in digits[: i - 1]]
        h1 = relu(float((i - 1) * (c - 1)), *[(-w, e) for w, e in lower])
        h2 = relu(float((i - 1) * (c - 1) - 1), *[(-w, e) for w, e in lower])
        upto = [(1.0, node(d)) for d in digits[:i]]
        h3 = relu(float(-i * (c - 1) + 1), *upto)
        out.append(
            relu(1.0, (1.0, node(digits[i - 1])), (-1.0, h1), (1.0, h2), (-float(c), h3))
        )
    return out


def exp_binary(alpha: float, x) -> Expr:
    """exp(alpha * x) for x in {0, 1}: (1 - e^alpha) [x = 0] + e^alpha.

    Exact at both inputs for |alpha| < ln 3, which covers every use here
    (boosting exponents are advantages, so |alpha| <= 1).
    """
    ea = math.exp(alpha)
    return relu(ea, (1.0 - ea, ind_eq(x, 0.0)))


_KINDS = {
    "indicator_eq": ind_eq,
    "indicator_le": ind_le,
    "indicator_ge": ind_ge,
    "if_else": if_else,
    "or": or_,
    "and": and_,
    "not": not_,
    "base_c_increment": base_c_increment,
    "exp_binary": exp_binary,
}


def build_transition(kind: str, *args, **params):
    """Dispatch to a library constructor by name."""
    try:
        builder = _KINDS[kind]
    except KeyError:
        raise ValidationError(
            f"unsupported transition kind {kind!r}; known: {sorted(_KINDS)}"
        ) from None
    return builder(*args, **params)
