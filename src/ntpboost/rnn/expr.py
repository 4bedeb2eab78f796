"""Transition-function expressions, hash-consed.

The only internal operators are relu of a weighted sum, product, and
reciprocal of a weighted sum; leaves are constants and references to
incoming-neighbor values at the previous time step.  Indicator gadgets
built from these are exact on integer inputs because the machine
precision constant is a power of two.

Expressions are hash-consed: building a node equal to a live one
returns the live object, so a circuit is a DAG holding one object per
distinct structure.  The intern key is the class, the float fields by
their bits and the children by identity, so ``0.0`` and ``-0.0`` stay
two objects and ``to_sexpr`` prints each as it was built.  The intern
table holds its nodes weakly: an expression nothing else refers to is
freed.  Each node caches its depth, its free node names (a frozenset)
and its hash, all computed from its children when it is built, so
``depth``, ``free_nodes`` and ``hash`` cost O(1).  Equality stays
structural, with floats compared by value: ``Relu(0.0, t) ==
Relu(-0.0, t)``.

Case selectors (sums of value*condition products) assume nonnegative
branch values, which holds for every graph this package constructs;
relu of such a sum is then exact.
"""

from __future__ import annotations

import math
import struct
import weakref

from ..errors import ValidationError

MACHINE_EPS = 2.0**-32  # indicator window; inputs here are always integers

_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NO_NAMES: frozenset = frozenset()


def _bits(*xs: float) -> bytes:
    """Bit-exact key of float fields: 0.0 and -0.0 differ."""
    return struct.pack(f"{len(xs)}d", *xs)


class Expr:
    """An interned, immutable expression node, compared structurally."""

    __slots__ = ("_depth", "_free", "_hash", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"expressions are immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"expressions are immutable; cannot delete {name!r}")

    def __reduce__(self):
        # rebuild through the constructor, which interns
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _child(e) -> Expr:
    if not isinstance(e, Expr):
        raise ValidationError(f"unknown expression {e!r}")
    return e


def _union(children) -> frozenset:
    """Free names of the children, reusing a child's set when it covers the rest.

    Nested sets are walked once; otherwise one union is taken over all of
    them, never one per child, so the cost stays linear in their names.
    """
    free = _NO_NAMES
    for e in children:
        if not e._free <= free:
            if not free <= e._free:
                break
            free = e._free
    else:
        return free
    names = [e._free for e in children]
    free = max(names, key=len)
    return free if all(s <= free for s in names) else free.union(*names)


def _intern(cls, key, fields: tuple, depth: int, free: frozenset) -> Expr:
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(obj, name, value)
    object.__setattr__(obj, "_depth", depth)
    object.__setattr__(obj, "_free", free)
    object.__setattr__(obj, "_hash", hash((cls, *fields)))
    _INTERNED[key] = obj
    return obj


class Const(Expr):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        key = (cls, _bits(value))
        obj = _INTERNED.get(key)
        if obj is None:
            obj = _intern(cls, key, (value,), 0, _NO_NAMES)
        return obj


class Node(Expr):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        obj = _INTERNED.get(key)
        if obj is None:
            obj = _intern(cls, key, (name,), 0, frozenset((name,)))
        return obj


class _WeightedSum(Expr):
    """bias + sum coef * child, then the subclass's activation."""

    __slots__ = ("bias", "terms")
    __match_args__ = ("bias", "terms")

    def __new__(cls, bias: float, terms):
        bias = float(bias)
        terms = tuple((float(c), _child(e)) for c, e in terms)
        key = (cls, _bits(bias, *(c for c, _ in terms)), *(id(e) for _, e in terms))
        obj = _INTERNED.get(key)
        if obj is None:
            children = [e for _, e in terms]
            depth = 1 + max((e._depth for e in children), default=0)
            obj = _intern(cls, key, (bias, terms), depth, _union(children))
        return obj


class Relu(_WeightedSum):
    """relu(bias + sum coef * child)."""

    __slots__ = ()


class Recip(_WeightedSum):
    """1 / (bias + sum coef * child); denominator must be nonzero."""

    __slots__ = ()


class Prod(Expr):
    """Product of one or more factors."""

    __slots__ = ("factors",)
    __match_args__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(_child(f) for f in factors)
        if not factors:
            raise ValidationError("a product needs at least one factor")
        key = (cls, *(id(f) for f in factors))
        obj = _INTERNED.get(key)
        if obj is None:
            depth = 1 + max(f._depth for f in factors)
            obj = _intern(cls, key, (factors,), depth, _union(factors))
        return obj


# -- construction helpers ---------------------------------------------------


def const(v: float) -> Const:
    return Const(v)


def node(name) -> Expr:
    return name if isinstance(name, Expr) else Node(name)


def relu(bias: float, *terms: tuple[float, Expr]) -> Relu:
    return Relu(bias, [(c, node(e)) for c, e in terms])


def recip(bias: float, *terms: tuple[float, Expr]) -> Recip:
    return Recip(bias, [(c, node(e)) for c, e in terms])


def prod(*factors) -> Expr:
    fs = tuple(node(f) for f in factors)
    if len(fs) == 1:
        return fs[0]
    return Prod(fs)


def add(*terms: tuple[float, Expr], bias: float = 0.0) -> Relu:
    """Weighted sum of nonnegative quantities, realized as an exact relu."""
    return relu(bias, *terms)


def ind_eq(x, c: float) -> Expr:
    """1 if x == c else 0; exact for integer-valued x."""
    x = node(x)
    inv = 1.0 / MACHINE_EPS
    above = relu(-c, (1.0, x))
    below = relu(c, (-1.0, x))
    return relu(1.0, (-inv, above), (-inv, below))


def ind_le(x, c: float) -> Expr:
    """1 if x <= c else 0; exact for integer-valued x."""
    x = node(x)
    inv = 1.0 / MACHINE_EPS
    return relu(0.0, (inv, relu(c + MACHINE_EPS, (-1.0, x))), (-inv, relu(c, (-1.0, x))))


def ind_ge(x, c: float) -> Expr:
    """1 if x >= c else 0; exact for integer-valued x."""
    x = node(x)
    inv = 1.0 / MACHINE_EPS
    return relu(0.0, (inv, relu(MACHINE_EPS - c, (1.0, x))), (-inv, relu(-c, (1.0, x))))


def lnot(b: Expr) -> Expr:
    return relu(1.0, (-1.0, b))


def land(*bs) -> Expr:
    return prod(*bs)


def case_select(cases: list[tuple[Expr, Expr]], default: Expr) -> Expr:
    """First-match if/elif/else chain over {0,1} conditions.

    Evaluates as sum_i value_i * cond_i * prod_{j<i}(1 - cond_j) plus the
    default guarded by all negations.  Branch values must be nonnegative.
    """
    terms = []
    blockers: list[Expr] = []
    for cond, value in cases:
        terms.append((1.0, prod(value, cond, *blockers)))
        blockers.append(lnot(cond))
    terms.append((1.0, prod(default, *blockers)))
    return relu(0.0, *terms)


def hold(name: str) -> Expr:
    return Node(name)


# -- inspection -------------------------------------------------------------


def free_nodes(expr: Expr) -> frozenset[str]:
    """Names of the nodes the expression reads (cached at construction)."""
    return expr._free


def depth(expr: Expr) -> int:
    """Operator depth: 0 for leaves (cached at construction)."""
    return expr._depth


def substitute(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rename node references; names absent from the mapping are kept.

    A subexpression reading no mapped name is returned as it is, and each
    shared subexpression is renamed once.
    """
    mapped = frozenset(mapping)
    memo: dict[int, Expr] = {}  # by identity: ``expr`` keeps its nodes alive

    def rename(e: Expr) -> Expr:
        if mapped.isdisjoint(e._free):
            return e
        out = memo.get(id(e))
        if out is None:
            if isinstance(e, Node):
                out = Node(mapping[e.name])
            elif isinstance(e, Prod):
                out = Prod([rename(f) for f in e.factors])
            else:
                out = type(e)(e.bias, [(c, rename(x)) for c, x in e.terms])
            memo[id(e)] = out
        return out

    return rename(expr)


def evaluate(expr: Expr, values: dict[str, float]) -> float:
    """Reference tree-walk evaluation (the engine compiles instead)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Node):
        return values[expr.name]
    if isinstance(expr, Relu):
        acc = expr.bias
        for c, child in expr.terms:
            acc += c * evaluate(child, values)
        return acc if acc > 0.0 else 0.0
    if isinstance(expr, Recip):
        acc = expr.bias
        for c, child in expr.terms:
            acc += c * evaluate(child, values)
        if acc == 0.0:
            raise ZeroDivisionError("reciprocal of zero")
        return 1.0 / acc
    if isinstance(expr, Prod):
        acc = 1.0
        for f in expr.factors:
            acc *= evaluate(f, values)
        return acc
    raise ValidationError(f"unknown expression {expr!r}")


# -- s-expression serialization --------------------------------------------


def to_sexpr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return f"(const {expr.value!r})"
    if isinstance(expr, Node):
        return f"(node {expr.name})"
    if isinstance(expr, (Relu, Recip)):
        head = "relu" if isinstance(expr, Relu) else "recip"
        parts = " ".join(f"({c!r} {to_sexpr(e)})" for c, e in expr.terms)
        return f"({head} {expr.bias!r}{' ' + parts if parts else ''})"
    if isinstance(expr, Prod):
        return "(prod " + " ".join(to_sexpr(f) for f in expr.factors) + ")"
    raise ValidationError(f"unknown expression {expr!r}")


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def from_sexpr(text: str) -> Expr:
    """Parse ``to_sexpr`` output; malformed text raises ValidationError.

    One walk over the token list by index: linear in the text's length.
    """
    if not isinstance(text, str):
        raise ValidationError(f"expression must be a string, got {text!r}")
    tokens = _tokenize(text)
    pos = 0

    def take(want: str | None = None) -> str:
        nonlocal pos
        if pos == len(tokens):
            raise ValidationError(f"expression ended early, expected {want or 'a token'}")
        tok = tokens[pos]
        if want is not None and tok != want:
            raise ValidationError(f"expected {want!r} in expression, got {tok!r}")
        pos += 1
        return tok

    def number() -> float:
        tok = take()
        try:
            value = float(tok)
        except ValueError:
            raise ValidationError(f"{tok!r} is not a number") from None
        if not math.isfinite(value):
            raise ValidationError(f"non-finite number {tok!r}")
        return value

    def expr() -> Expr:
        take("(")
        head = take()
        if head == "const":
            out = Const(number())
        elif head == "node":
            name = take()
            if name in ("(", ")"):
                raise ValidationError(f"expected a node name, got {name!r}")
            out = Node(name)
        elif head in ("relu", "recip"):
            bias, terms = number(), []
            while tokens[pos : pos + 1] == ["("]:  # weighted terms (coef expr)
                take("(")
                terms.append((number(), expr()))
                take(")")
            out = (Relu if head == "relu" else Recip)(bias, terms)
        elif head == "prod":
            factors = []
            while tokens[pos : pos + 1] == ["("]:
                factors.append(expr())
            out = Prod(factors)
        else:
            raise ValidationError(f"unknown operator {head!r}")
        take(")")
        return out

    out = expr()
    if pos < len(tokens):
        raise ValidationError(f"trailing tokens in expression: {tokens[pos:pos + 5]}")
    return out
