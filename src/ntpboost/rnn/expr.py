"""Transition-function expressions, hash-consed, and the gadget library.

The only internal operators are relu of a weighted sum, product, and
reciprocal of a weighted sum; leaves are constants and references to
incoming-neighbor values at the previous time step.  Every gadget the
constructions use is built here from these: the indicators ``ind_eq``,
``ind_le`` and ``ind_ge``, ``lnot``, ``or_`` and ``and_`` of bits, the
first-match selector ``case_select``, the latch ``hold`` (a node kept
unless a case fires), the counters ``cycle`` (1..top, wrapping, gated
or not) and ``saturate`` (gated, stopping at a cap), ``base_c_increment``
and ``exp_binary``.  Each is exact on its declared domain: indicator and
counter inputs are integers (the machine precision constant is a power
of two), boolean inputs are bits and digit inputs lie in [0, c-1].

Expressions are hash-consed: building a node equal to a live one
returns the live object, so a circuit is a DAG holding one object per
distinct structure.  The intern key is the class, the float fields by
their bits and the children by identity, so ``0.0`` and ``-0.0`` stay
two objects and ``to_sexpr`` prints each as it was built.  The
interned object is an expression's only identity: ``Expr`` keeps
``object``'s equality and hash, so ``Relu(0.0, t) != Relu(-0.0, t)``,
and a copy or a pickle comes back as the interned object.  The intern
table holds its nodes weakly: an expression nothing else refers to is
freed.  Each node caches its depth and its free node names (a
frozenset), both computed from its children's cached facts when it is
built, so ``depth`` and ``free_nodes`` cost O(1).

Construction is one pass per expression.  The helpers (``node``,
``relu``, ``recip``, ``prod``) and the class constructors walk their
arguments once, converting each float, checking each child (a helper
also takes a node by its name: a ``str``) and collecting the intern key
as they go; the floats are packed by a ``struct.Struct`` made once per
count.  A value ``float`` refuses is a ``ValidationError`` naming it,
from one ``try`` around each conversion loop, which costs nothing when
every value converts.  Only on a miss is a node built, in one more loop
over its children that reads their cached depth and free names.
``substitute`` rebuilds renamed sums and products through the same
lookup, ``_sum`` and ``_prod``, reusing the source node's converted
floats and their packed bits.

Each table entry is a weak reference that carries its key, and one
callback drops the entry when its expression is freed.  The indicator
gadgets are interned in the same table: ``ind_eq``, ``ind_le`` and
``ind_ge`` look their result up under a key of the gadget's build
function, x by identity and c by its bits (by identity when c is a
node), so a table compiler that asks for ``ind_eq("p1", 2.0)`` once per
prefix builds its three relus once.  A gadget key begins with a
function and a node's key with a class, so the two never collide; a
gadget's result is held under both.  ``c`` is converted to a float
first: an int and an equal float give one gadget, ``0.0`` and ``-0.0``
two.

Case selectors (sums of value*condition products) assume nonnegative
branch values, which holds for every graph this package constructs;
relu of such a sum is then exact.

Everything the compile layer builds is acyclic: a node refers only to
its children, which exist before it, and the walks that build or read
the DAG (``substitute``, ``from_sexpr``, ``engine.compile_graph``) keep
their state in arguments or objects, never in a closure that refers to
itself.  So reference counting alone frees a dropped circuit, its
expressions, their intern entries and its compiled program.  The
cyclic collector would find nothing there, but a build's thousands of
new objects trigger its walks over the live DAG, so the builders and
``compile_graph`` run under ``collector_paused``, which disables it for
the call, and so do the ``verify`` checks that build and run circuits,
whose collections would otherwise walk a circuit right after its
builder returns.  The analytic and loop layers keep the collector's
default.
"""

from __future__ import annotations

import gc
import math
import struct
import weakref
from functools import wraps

from ..errors import ValidationError

MACHINE_EPS = 2.0**-32  # indicator window; inputs here are always integers

# key -> _Entry, a weak reference to the live expression built for it
_INTERNED: dict = {}
_NO_NAMES: frozenset = frozenset()

_new = object.__new__
_set = object.__setattr__  # Expr.__setattr__ refuses every write


class _Entry(weakref.ref):
    """The table's weak reference to an expression and the key it is under."""

    __slots__ = ("key",)


def _unintern(entry: _Entry) -> None:
    """The one callback of the table's entries: it drops an entry when its
    expression is freed."""
    if _INTERNED.get(entry.key) is entry:  # not bound to a newer expression since
        del _INTERNED[entry.key]


class _Packers(dict):
    """count -> ``pack`` of a ``struct.Struct`` of that many doubles, made
    on first use: the bit-exact key of float fields (0.0 and -0.0 differ)."""

    def __missing__(self, count: int):
        pack = self[count] = struct.Struct(f"{count}d").pack
        return pack


_BITS = _Packers()


def collector_paused(fn):
    """``fn`` run with CPython's cyclic collector disabled (see above).

    The collector is enabled again afterwards only if it was enabled on
    entry, so nested calls and callers that disabled it keep their state.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class Expr:
    """An interned, immutable expression node; equal only to itself."""

    __slots__ = ("_depth", "_free", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

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


def _unknown(e) -> ValidationError:
    return ValidationError(f"unknown expression {e!r}")


# what ``float`` raises for a value that is not a number
_NOT_FLOAT = (TypeError, ValueError, OverflowError)


def _not_a_number(value) -> ValidationError:
    return ValidationError(f"expected a number, got {value!r}")


def _sum_fault(bias, terms) -> ValidationError:
    """The error for a weighted sum whose conversion failed: it names the
    bias or the first coefficient that is not a number, or the first term
    that is not a (coefficient, expression) pair."""
    for term in ((bias, None), *terms):  # the bias first, as a pair
        if not isinstance(term, (tuple, list)) or len(term) != 2:
            return ValidationError(
                f"expected a (coefficient, expression) pair, got {term!r}"
            )
        try:
            float(term[0])
        except _NOT_FLOAT:
            return _not_a_number(term[0])
    return ValidationError(f"cannot convert the terms {terms!r}")


def _keep(obj: Expr, key: tuple, depth: int, free: frozenset) -> Expr:
    """Cache a new node's facts and hold it weakly in the intern table."""
    _set(obj, "_depth", depth)
    _set(obj, "_free", free)
    entry = _Entry(obj, _unintern)
    entry.key = key
    _INTERNED[key] = entry
    return obj


def _union(frees: list) -> frozenset:
    """The union of the children's free names, reusing a child's set when it
    covers the rest.

    Nested sets are walked once; otherwise one union is taken over all of
    them, never one per child, so the cost stays linear in their names.
    """
    free = _NO_NAMES
    for names in frees:
        if not names <= free:
            if not free <= names:
                break
            free = names
    else:
        return free
    union = free.union(*frees)
    for names in frees:
        if len(names) == len(union):
            return names
    return union


class Const(Expr):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __new__(cls, value: float):
        try:
            value = float(value)
        except _NOT_FLOAT:
            raise _not_a_number(value) from None
        key = (cls, _BITS[1](value))
        entry = _INTERNED.get(key)
        if entry is not None and (obj := entry()) is not None:
            return obj
        obj = _new(cls)
        _set(obj, "value", value)
        return _keep(obj, key, 0, _NO_NAMES)


class Node(Expr):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        return _named(name)


def _named(name: str) -> Node:
    """The node reading ``name``, which must be a string."""
    if not isinstance(name, str):
        raise _unknown(name)
    key = (Node, name)
    entry = _INTERNED.get(key)
    if entry is not None and (obj := entry()) is not None:
        return obj
    obj = _new(Node)
    _set(obj, "name", name)
    return _keep(obj, key, 0, frozenset((name,)))


class _WeightedSum(Expr):
    """bias + sum coef * child, then the subclass's activation.

    ``_packed`` holds the bias and the coefficients packed by ``_BITS``,
    the float part of the intern key.
    """

    __slots__ = ("bias", "terms", "_packed")
    __match_args__ = ("bias", "terms")

    def __new__(cls, bias: float, terms):
        return _weighted(cls, bias, terms, False)


def _weighted(cls, bias: float, terms, names: bool) -> Expr:
    """The sum of ``bias`` and ``terms`` (coef, child), each converted and
    checked once; with ``names`` a child may be a node's name."""
    pairs = []
    key = [cls, None]  # the packed floats go in second
    try:
        floats = [float(bias)]
        for c, e in terms:
            c = float(c)
            if not isinstance(e, Expr):
                if not names:
                    raise _unknown(e)
                e = _named(e)
            floats.append(c)
            pairs.append((c, e))
            key.append(id(e))
    except _NOT_FLOAT:
        raise _sum_fault(bias, terms) from None
    key[1] = packed = _BITS[len(floats)](*floats)
    return _sum(cls, tuple(key), floats[0], tuple(pairs), packed)


def _sum(cls, key: tuple, bias: float, terms: tuple, packed: bytes) -> Expr:
    """The weighted sum interned under ``key``, built on a miss from
    converted floats, packed in ``packed``, and checked children."""
    entry = _INTERNED.get(key)
    if entry is not None and (obj := entry()) is not None:
        return obj
    depth, frees = 0, []
    for _, e in terms:
        if e._depth > depth:
            depth = e._depth
        frees.append(e._free)
    obj = _new(cls)
    _set(obj, "bias", bias)
    _set(obj, "terms", terms)
    _set(obj, "_packed", packed)
    return _keep(obj, key, depth + 1, _union(frees))


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
        return _product(factors, False)


def _product(factors, names: bool) -> Expr:
    """The product of ``factors``, each checked once; with ``names`` a
    factor may be a node's name."""
    fs, key = [], [Prod]
    for f in factors:
        if not isinstance(f, Expr):
            if not names:
                raise _unknown(f)
            f = _named(f)
        fs.append(f)
        key.append(id(f))
    if not fs:
        raise ValidationError("a product needs at least one factor")
    return _prod(tuple(key), tuple(fs))


def _prod(key: tuple, factors: tuple) -> Expr:
    """The product interned under ``key``, built on a miss from checked
    factors."""
    entry = _INTERNED.get(key)
    if entry is not None and (obj := entry()) is not None:
        return obj
    depth, frees = 0, []
    for f in factors:
        if f._depth > depth:
            depth = f._depth
        frees.append(f._free)
    obj = _new(Prod)
    _set(obj, "factors", factors)
    return _keep(obj, key, depth + 1, _union(frees))


# -- construction helpers ---------------------------------------------------


def const(v: float) -> Const:
    return Const(v)


def node(name) -> Expr:
    """``name`` if it is an expression, else the node of that name."""
    return name if isinstance(name, Expr) else _named(name)


def relu(bias: float, *terms: tuple[float, Expr]) -> Relu:
    return _weighted(Relu, bias, terms, True)


def recip(bias: float, *terms: tuple[float, Expr]) -> Recip:
    return _weighted(Recip, bias, terms, True)


def prod(*factors) -> Expr:
    if len(factors) == 1:
        return node(factors[0])
    return _product(factors, True)


def _gadget(build, x, c) -> Expr:
    """``build(x, c)`` for a node x, looked up first in the intern table
    under a key that begins with ``build``.

    ``c`` is a constant, keyed by its bits, or a node, keyed by identity.
    The gadget reads x and c, so their ids stay valid while the entry
    lives.
    """
    if isinstance(c, Expr):
        key = (build, id(x), id(c))
    else:
        try:
            c = float(c)
        except _NOT_FLOAT:
            raise _not_a_number(c) from None
        key = (build, id(x), _BITS[1](c))
    entry = _INTERNED.get(key)
    if entry is not None and (obj := entry()) is not None:
        return obj
    obj = build(x, c)
    entry = _INTERNED[key] = _Entry(obj, _unintern)
    entry.key = key
    return obj


def _eq(x: Expr, c) -> Expr:
    inv = 1.0 / MACHINE_EPS
    if isinstance(c, Expr):
        above = relu(0.0, (1.0, x), (-1.0, c))
        below = relu(0.0, (1.0, c), (-1.0, x))
    else:
        above = relu(-c, (1.0, x))
        below = relu(c, (-1.0, x))
    return relu(1.0, (-inv, above), (-inv, below))


def _le(x: Expr, c: float) -> Expr:
    inv = 1.0 / MACHINE_EPS
    return relu(0.0, (inv, relu(c + MACHINE_EPS, (-1.0, x))), (-inv, relu(c, (-1.0, x))))


def _ge(x: Expr, c: float) -> Expr:
    inv = 1.0 / MACHINE_EPS
    return relu(0.0, (inv, relu(MACHINE_EPS - c, (1.0, x))), (-inv, relu(-c, (1.0, x))))


def ind_eq(x, c) -> Expr:
    """1 if x == c else 0; exact for integer-valued x and c.

    ``c`` is a constant, or a node (a name or an expression) to compare
    x with.
    """
    return _gadget(_eq, node(x), node(c) if isinstance(c, str) else c)


def ind_le(x, c: float) -> Expr:
    """1 if x <= c else 0; exact for integer-valued x."""
    return _gadget(_le, node(x), c)


def ind_ge(x, c: float) -> Expr:
    """1 if x >= c else 0; exact for integer-valued x."""
    return _gadget(_ge, node(x), c)


def lnot(b: Expr) -> Expr:
    return relu(1.0, (-1.0, b))


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


def hold(x, cases: list[tuple[Expr, Expr]]) -> Expr:
    """Node x's next value: the first case that fires, else x kept as it is."""
    return case_select(cases, node(x))


def cycle(x, top, gate=None) -> Expr:
    """Counter x stepping 1, 2, ..., top, 1, 2, ...

    It wraps when x == top, so it reads ``ind_eq(x, top)``, which the
    circuits' phase conditions share.  With ``gate`` it steps only when
    the gate fires and holds otherwise.
    """
    x = node(x)
    at_top = ind_eq(x, top)
    if gate is None:
        return case_select([(at_top, const(1.0))], relu(1.0, (1.0, x)))
    return hold(x, [(prod(gate, at_top), const(1.0)), (gate, relu(1.0, (1.0, x)))])


def saturate(x, cap, gate) -> Expr:
    """Counter x that adds one when ``gate`` fires and x < cap, and holds
    otherwise; exact for integer-valued x."""
    x = node(x)
    return hold(x, [(prod(gate, ind_le(x, cap - 1.0)), relu(1.0, (1.0, x)))])


def or_(*xs) -> Expr:
    """OR of bits as [sum >= 1]."""
    return ind_ge(relu(0.0, *[(1.0, x) for x in xs]), 1.0)


def and_(*xs) -> Expr:
    """AND of bits as [sum >= count]."""
    return ind_ge(relu(0.0, *[(1.0, x) for x in xs]), float(len(xs)))


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
        lower = [(-1.0, d) for d in digits[: i - 1]]
        h1 = relu(float((i - 1) * (c - 1)), *lower)
        h2 = relu(float((i - 1) * (c - 1) - 1), *lower)
        h3 = relu(float(-i * (c - 1) + 1), *[(1.0, d) for d in digits[:i]])
        out.append(relu(1.0, (1.0, digits[i - 1]), (-1.0, h1), (1.0, h2), (-float(c), h3)))
    return out


def exp_binary(alpha: float, x) -> Expr:
    """exp(alpha * x) for x in {0, 1}: (1 - e^alpha) [x = 0] + e^alpha.

    Exact at both inputs for |alpha| < ln 3, which covers every use here
    (boosting exponents are advantages, so |alpha| <= 1).
    """
    ea = math.exp(alpha)
    return relu(ea, (1.0 - ea, ind_eq(x, 0.0)))


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
    shared subexpression is renamed once, through the internal
    constructors: its floats were converted and checked when it was built.
    """
    kept = frozenset(mapping).isdisjoint  # of the free names of a node kept as it is
    if kept(expr._free):
        return expr
    memo: dict[int, Expr] = {}  # by identity: ``expr`` keeps its nodes alive
    return _rename(expr, (mapping, kept, memo, memo.get))


def _rename(e: Expr, walk: tuple) -> Expr:
    """``e`` renamed; ``walk`` is ``substitute``'s (mapping, kept, memo,
    memo.get), and memo maps the id of each node renamed so far to its copy.

    A child kept or renamed before is looked up here, not in a call, and
    the loops are plain loops: before Python 3.12 a comprehension is a
    function call of its own.
    """
    mapping, kept, memo, renamed = walk
    kind = type(e)
    if kind is Node:
        out = _named(mapping[e.name])
    elif kind is Prod:
        fs, key = [], [Prod]
        for f in e.factors:
            if not kept(f._free):
                f = renamed(id(f)) or _rename(f, walk)
            fs.append(f)
            key.append(id(f))
        out = _prod(tuple(key), tuple(fs))
    else:
        terms, key = [], [kind, e._packed]
        for c, x in e.terms:
            if not kept(x._free):
                x = renamed(id(x)) or _rename(x, walk)
            terms.append((c, x))
            key.append(id(x))
        out = _sum(kind, tuple(key), e.bias, tuple(terms), e._packed)
    memo[id(e)] = out
    return out


def evaluate(expr: Expr, values: dict[str, float]) -> float:
    """Reference tree-walk evaluation (the engine compiles instead).

    It gives the engine's bytes: terms are summed left to right from
    -0.0 and the bias is added last unless it is zero, relu keeps a NaN
    and maps both zeros to +0.0, and products multiply left to right.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Node):
        return values[expr.name]
    if isinstance(expr, (Relu, Recip)):
        acc = -0.0
        for c, child in expr.terms:
            acc += c * evaluate(child, values)
        if expr.bias != 0.0:
            acc += expr.bias
        if isinstance(expr, Relu):
            return 0.0 if acc <= 0.0 else acc
        if acc == 0.0:
            raise ZeroDivisionError("reciprocal of zero")
        return 1.0 / acc
    if isinstance(expr, Prod):
        acc = 1.0
        for f in expr.factors:
            acc *= evaluate(f, values)
        return acc
    raise _unknown(expr)


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
    raise _unknown(expr)


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


class _Reader:
    """A cursor over the tokens of one s-expression.

    Its methods call each other through ``self``, so parsing builds no
    closure that refers to itself (see the module docstring).
    """

    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def take(self, want: str | None = None) -> str:
        if self.pos == len(self.tokens):
            raise ValidationError(f"expression ended early, expected {want or 'a token'}")
        tok = self.tokens[self.pos]
        if want is not None and tok != want:
            raise ValidationError(f"expected {want!r} in expression, got {tok!r}")
        self.pos += 1
        return tok

    def number(self) -> float:
        tok = self.take()
        try:
            value = float(tok)
        except ValueError:
            raise ValidationError(f"{tok!r} is not a number") from None
        if not math.isfinite(value):
            raise ValidationError(f"non-finite number {tok!r}")
        return value

    def expr(self) -> Expr:
        self.take("(")
        head = self.take()
        if head == "const":
            out = Const(self.number())
        elif head == "node":
            name = self.take()
            if name in ("(", ")"):
                raise ValidationError(f"expected a node name, got {name!r}")
            out = Node(name)
        elif head in ("relu", "recip"):
            bias, terms = self.number(), []
            while self.tokens[self.pos : self.pos + 1] == ["("]:  # weighted terms (coef expr)
                self.take("(")
                terms.append((self.number(), self.expr()))
                self.take(")")
            out = (Relu if head == "relu" else Recip)(bias, terms)
        elif head == "prod":
            factors = []
            while self.tokens[self.pos : self.pos + 1] == ["("]:
                factors.append(self.expr())
            out = Prod(factors)
        else:
            raise ValidationError(f"unknown operator {head!r}")
        self.take(")")
        return out


def from_sexpr(text: str) -> Expr:
    """Parse ``to_sexpr`` output; malformed text raises ValidationError.

    One walk over the token list by index: linear in the text's length.
    """
    if not isinstance(text, str):
        raise ValidationError(f"expression must be a string, got {text!r}")
    reader = _Reader(_tokenize(text))
    out = reader.expr()
    if reader.pos < len(reader.tokens):
        raise ValidationError(
            f"trailing tokens in expression: {reader.tokens[reader.pos:reader.pos + 5]}"
        )
    return out
