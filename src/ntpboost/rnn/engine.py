"""Synchronous execution of circuit graphs.

All non-input nodes update simultaneously from the previous step's
values; input nodes are overwritten from the stream, whose pointer
advances every ``rnn_time`` steps.  Time is 1-based: the state at t = 1
is the initial values with the first token applied, matching the
counter conventions of the constructions.

Expressions are compiled once into a flat tape, and the tape into a
level schedule.  The tape has one slot per interned expression object
(see ``expr``), each lowered once to an entry ``(op, bias, ((coef,
slot), ...))`` over its children's slots.  Interning keys floats by
their bits, so a ``0.0`` and a ``-0.0`` twin keep a slot each, and a
node's bytes do not depend on the other nodes of its graph.  A slot's
level is 0 for constants and node reads and one more than its deepest
child otherwise.  A level's rows in the slot array hold its relu, then
its reciprocal, then its product slots, and its slots are bucketed by
operator and ``arity.bit_length()`` (arity 1, 2-3, 4-7, ...).  Each
bucket is padded to its longest term list from one shared pad row:
-0.0 with weight 1 for sums and 1.0 for products, each the exact
identity.  Every update evaluates a level for the whole batch with a
fixed set of numpy calls: one ``take`` of every term into a scratch
buffer, one coefficient multiply, one call per bucket, one bias add,
one ``maximum`` over the relu rows, and one zero check and divide over
the reciprocal rows.  A bucket's call depends only on its padded arity:
arity 1 is a copy of its one term, arity 2 one ``np.add`` or
``np.multiply`` of its two terms, and only from arity 3 is it a
reduction over the term axis.  At the batch sizes the programs run (a
few columns), a call's cost is mostly numpy's fixed overhead, so a copy
or a binary op is cheaper than a reduction of one or two terms.  The
scratch is allocated once per ``_advance``, for the widest level at the
full batch, and ``_bind`` binds the views each level uses once per
batch width, with the level's coefficient and bias columns expanded to
contiguous (cells, width) and (sums, width) arrays: numpy then runs one
flat loop over them rather than one short loop per row.  The gather
uses ``take``'s ``"clip"`` mode, which writes into the scratch without
buffering but would clamp a bad row silently, so ``_schedule`` checks
that every row a level reads belongs to the state, a constant or an
earlier level.  ``Schedule`` reports the cost: ``levels``,
``reductions`` (buckets, each one call per update), ``term_cells``
(terms and factors on the tape) and ``padded_cells`` (cells gathered
per column and update).  On one n=6, k=2 boosted circuit of the
``sweep`` benchmark, 1,343 tape slots give 8 levels and 28 buckets, 10
of them of arity 1 or 2, gathering 4,612 cells for 4,141 terms.
``_schedule`` reads the tape once into flat arrays (each slot's
operator, each term's parent, place, child and coefficient) and
derives levels, rows, buckets and padded cells from them with numpy
index arithmetic; ``tests/reference_schedule.py`` keeps the
slot-by-slot layout it must reproduce field for field.  Every update
of ``run`` and the scrubbing harness goes through the one step function
``_advance``.  ``compile_graph`` keeps the lowering's state in
arguments, so the program it builds holds no cycle, and runs under
``expr.collector_paused`` (see ``expr`` for the acyclicity invariant).

The schedule gives the same bytes as evaluating the tape slot by slot
with a left-to-right sum:

* terms are added in tape order, ``((c1 x1 + c2 x2) + c3 x3) + ...``:
  from arity 3, numpy reduces the term axis of a bucket's (arity,
  slots, batch) block elementwise, starting from -0.0, and a batch of
  one (where numpy would switch to pairwise summation) accumulates
  instead.  ``np.add.reduceat`` is not used: it does not add left to
  right.  Arity 2 adds ``x1 + x2``, the same bytes as ``(-0.0 + x1) +
  x2``, and arity 1 copies ``x1``, which is ``-0.0 + x1``: adding -0.0
  leaves every value, -0.0 and NaN included, as it is, and a product
  of one factor is that factor;
* pads come after a slot's own terms, and adding -0.0 (or multiplying
  by 1.0) leaves every value, -0.0, infinities and NaN included, as it
  is;
* the bias is added last, and where it is zero nothing is added: the
  schedule adds -0.0, so the sign of a zero sum is kept;
* products multiply their factors left to right, and a term-less sum is
  its bias, as it is (its one term is the pad).

The sign of a zero sum does not reach the state: relu maps both zeros
to +0.0 (``np.maximum(-0.0, 0.0)`` is +0.0), and a zero denominator
raises.
A zero reciprocal denominator is reported for the lowest tape slot that
hits zero in that step, the slot a tape-order evaluation would stop at.
A run can carry a whole batch of streams at once (used to sweep every
document of Sigma^n in one pass).  Optional fixed-point mode quantizes
every node value after every update and counts saturation events.

A run records the output node at every multiple of ``rnn_time``, the
times at which it holds a next-token answer, and nothing else: a trace
holds tokens x batch values, no more than the stream itself, not steps x
nodes x batch.  ``_advance`` keeps the previous full state by reference
between updates and writes only the requested rows, at the requested
times, into the trace.  The reset, the token write, fixed-point
snapping, saturation counting and the domain checks still act on the
full state at every step, so saturation counts and errors do not depend
on what is recorded.  Before it allocates anything, ``run`` checks the
batch, the number of streams, against ``dist.enumeration_cap()``, the
cap ``dist.token_strings`` puts on the documents it enumerates, and
raises ``SizingError`` naming the predicted bytes.

Columns of a batch share their schedule evaluations.  A column's state
at time t depends only on its state at the start t0 of the call and on
the tokens written into its input nodes since, so ``_advance`` groups
the columns by the bits of that pair and evaluates the schedule on the
first column of each group.  Every other step of an update (reset on
advance, the token write, fixed-point snapping, domain checks and the
trace) runs on the full batch, so saturation counts and errors stay per
column.  The groups are refined only when the input pointer advances
(and at the first update), by the token then written: sweeping all of
Sigma^n evaluates about |Sigma|^i columns while token i is read, not
|Sigma|^n.  Two details keep the result byte-identical to running each
column alone:

* the start state is part of the key: the scrubbing harness resumes
  columns that read the same stream from different garbage states, and
  merging them would hide a divergence or a zero reciprocal;
* bits are compared, not values, so a ``0.0`` and a ``-0.0`` token (or
  state) stay apart.

When every column is its own group (a batch of one, resumed runs from
distinct garbage) the schedule runs on the batch as it is,
without any gather.  ``ExecutionTrace.evaluated_columns`` counts the
columns evaluated, summed over updates: (total_steps - 1) * batch when
nothing is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..dist import enumeration_cap
from ..errors import ReciprocalZeroError, SizingError, ValidationError
from .expr import Const, Node, Prod, Recip, Relu, collector_paused
from .graph import RnnGraph


@dataclass
class ExecutionTrace:
    """The output node at every multiple of ``rnn_time``.

    ``values`` is (recorded times, 1, batch): row i - 1 holds the output
    at t = i * rnn_time, for every such t up to ``total_steps``.  Reading
    another node or time raises ``ValidationError``.
    ``saturation_events`` counts fixed-point saturations over every node,
    step and column; ``evaluated_columns`` is the number of columns the
    schedule evaluated, summed over the updates (see the module
    docstring).
    """

    graph: RnnGraph
    values: np.ndarray  # shape (total_steps // rnn_time, 1, batch)
    total_steps: int
    saturation_events: int = 0
    evaluated_columns: int = 0

    def value(self, name: str, t: int) -> np.ndarray:
        """The output at 1-based time t, a multiple of rnn_time (batch vector)."""
        if name != self.graph.output_id:
            raise ValidationError(
                f"node {name!r} was not recorded; a run records the output "
                f"node {self.graph.output_id!r}"
            )
        i, rest = divmod(t, self.graph.rnn_time)
        if rest or not 1 <= i <= len(self.values):
            raise ValidationError(
                f"time {t} was not recorded; a run records the output at the "
                f"multiples of rnn_time {self.graph.rnn_time} up to {self.total_steps}"
            )
        return self.values[i - 1, 0]

    def output_at_multiples(self) -> dict[int, np.ndarray]:
        """Output node at times i * rnn_time, i = 1, 2, ..."""
        return {i: self.values[i - 1, 0] for i in range(1, len(self.values) + 1)}


# -- tape compilation --------------------------------------------------------

_CONST, _NODE, _RELU, _RECIP, _PROD = range(5)


@dataclass
class Level:
    """Tape slots of one level, evaluated together.

    Their values live in consecutive rows of the slot array: relu rows
    ``relu``, then reciprocal rows ``recip``, then product rows.
    ``src`` holds the rows every term reads, bucket after bucket;
    ``buckets`` lists ``(op, first cell, arity, first row, slots)``,
    whose cells are laid out term-major so that a bucket's terms are one
    (arity, slots, batch) block.  The first ``sum_cells`` cells are the
    sums' terms, weighted by ``coef`` (None when all weights are 1);
    ``bias`` (sums, 1) is added to the relu and reciprocal rows (None
    when every bias is -0.0); ``recip_slots`` names the tape slot of
    each reciprocal row.
    """

    relu: slice
    recip: slice
    src: np.ndarray
    buckets: list[tuple[int, int, int, int, int]]
    sum_cells: int
    coef: np.ndarray | None
    bias: np.ndarray | None
    recip_slots: np.ndarray


@dataclass
class Schedule:
    """The tape laid out as rows of one (num_rows, batch) slot array.

    Rows [0, num_nodes) hold the previous state, the next
    ``const_values`` rows the tape's constants and the two pad rows
    (-0.0, then 1.0), and the rest the levels in order.  ``next_rows``
    is the row each node's new value is read from (its own row for input
    nodes, which the stream then overwrites).  ``reductions`` counts the
    buckets, each one numpy call per update (a copy at arity 1, a binary
    op at arity 2, a reduction only from arity 3); ``term_cells`` the
    terms and factors on the tape and ``padded_cells`` the cells
    gathered per column and update, pads included.
    """

    num_rows: int
    const_values: np.ndarray
    levels: list[Level]
    next_rows: np.ndarray
    reductions: int
    term_cells: int
    padded_cells: int


@dataclass
class Program:
    graph: RnnGraph
    tape: list
    node_index: dict[str, int]
    node_slot: dict[str, int]  # root slot of each non-input node
    input_cols: list[int]
    reset_cols: list[int]
    checks: list[tuple[int, str, frozenset]]
    schedule: Schedule

    def new_state(self, batch: int) -> np.ndarray:
        state = np.empty((len(self.graph.nodes), batch))
        for j, spec in enumerate(self.graph.nodes):
            state[j] = spec.init
        return state


@collector_paused
def compile_graph(graph: RnnGraph) -> Program:
    node_index = {n.name: j for j, n in enumerate(graph.nodes)}
    tape: list = []
    lowered: dict[int, int] = {}  # id(expr) -> slot; the graph keeps each alive
    walk = (node_index, tape, lowered, lowered.get)
    node_slot = {}
    for spec in graph.nodes:
        if spec.expr is not None:
            e = spec.expr
            node_slot[spec.name] = lowered[id(e)] if id(e) in lowered else _lower(e, walk)

    checks = [
        (node_index[name], name, frozenset(values))
        for name, values in graph.meta.get("domain_checks", [])
    ]
    return Program(
        graph=graph,
        tape=tape,
        node_index=node_index,
        node_slot=node_slot,
        input_cols=[node_index[n] for n in graph.input_ids],
        reset_cols=[node_index[n] for n in graph.meta.get("reset_on_advance", [])],
        checks=checks,
        schedule=_schedule(tape, graph, node_index, node_slot),
    )


def _lower(expr, walk: tuple) -> int:
    """The tape slot of ``expr``, appending its entry and its children's
    entries to the tape as needed.

    ``walk`` is ``compile_graph``'s (node_index, tape, lowered,
    lowered.get): ``lowered`` maps each expression's id to its slot.  A
    child already lowered is looked up here, not in a call, and the loops
    are plain loops: before Python 3.12 a comprehension is a function
    call of its own.
    """
    node_index, tape, lowered, get = walk
    kind = type(expr)
    if kind is Relu or kind is Recip:
        terms = []
        for c, e in expr.terms:
            s = get(id(e))
            terms.append((c, s if s is not None else _lower(e, walk)))
        entry = (_RELU if kind is Relu else _RECIP, expr.bias, tuple(terms))
    elif kind is Prod:
        fs = []
        for f in expr.factors:
            s = get(id(f))
            fs.append(s if s is not None else _lower(f, walk))
        entry = (_PROD, tuple(fs))
    elif kind is Const:
        entry = (_CONST, expr.value)
    elif kind is Node:
        entry = (_NODE, node_index[expr.name])
    else:
        raise ValidationError(f"unknown expression {expr!r}")
    slot = lowered[id(expr)] = len(tape)
    tape.append(entry)
    return slot


def _schedule(tape, graph, node_index, node_slot) -> Schedule:
    """Lay the tape out in levels, and each level in padded buckets.

    One pass over the tape collects each slot's operator and its terms
    as flat arrays; levels, rows, buckets and padded cells then follow by
    numpy index arithmetic.  A child must come before its parent on the
    tape and a node read must name a node, so every gathered row belongs
    to the state, a constant or an earlier level; ``_evaluate`` gathers
    without a bounds check on that guarantee.
    """
    num_nodes = len(graph.nodes)
    ops = np.array([entry[0] for entry in tape], dtype=np.intp)
    reads = np.flatnonzero(ops == _NODE)
    consts = np.flatnonzero(ops == _CONST)
    sums = np.flatnonzero((ops == _RELU) | (ops == _RECIP))
    prods = np.flatnonzero(ops == _PROD)
    sum_terms = [tape[s][2] for s in sums.tolist()]
    prod_terms = [tape[s][1] for s in prods.tolist()]
    # every term as (parent slot, its place in the parent, child slot, coef)
    arity = np.zeros(len(tape), dtype=np.intp)
    arity[sums] = [len(ts) for ts in sum_terms]
    arity[prods] = [len(fs) for fs in prod_terms]
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(sum_terms)), float)
    factors = np.fromiter(chain.from_iterable(prod_terms), float)
    parent = np.concatenate([np.repeat(sums, arity[sums]), np.repeat(prods, arity[prods])])
    place = np.concatenate([_places(arity[sums]), _places(arity[prods])])
    child = np.concatenate([pairs[1::2], factors]).astype(np.intp)
    coef = np.concatenate([pairs[::2], np.ones(len(factors))])

    node_of = np.array([tape[s][1] for s in reads.tolist()], dtype=np.intp)
    bad = reads[(node_of < 0) | (node_of >= num_nodes)]
    bad_parent = parent[(child < 0) | (child >= parent)]
    if len(bad) or len(bad_parent):
        slot = int(min(bad.min(initial=len(tape)), bad_parent.min(initial=len(tape))))
        if tape[slot][0] == _NODE:
            raise ValidationError(f"tape slot {slot} reads node {tape[slot][1]} of {num_nodes}")
        raise ValidationError(f"tape slot {slot} reads a slot not before it")

    # level: 0 for leaves, else one more than the deepest child
    inner = np.sort(np.concatenate([sums, prods]))
    level = np.zeros(len(tape), dtype=np.intp)
    while True:
        deeper = np.zeros_like(level)
        deeper[inner] = 1
        np.maximum.at(deeper, parent, level[child] + 1)
        if (deeper == level).all():
            break
        level = deeper

    # rows: state, constants, the two pads (-0.0 with weight 1 and 1.0,
    # the exact identities), then level by level each bucket's slots;
    # buckets sort relu | recip | prod, then by arity.bit_length(), and a
    # term-less slot takes one pad term, so its bucket is arity 1's
    width = np.frexp(np.maximum(arity, 1))[1]
    order = inner[np.lexsort((inner, width[inner], ops[inner], level[inner]))]
    pad_sum = num_nodes + len(consts)
    pad_prod = pad_sum + 1
    base = pad_sum + 2
    row = np.empty(len(tape), dtype=np.intp)
    row[reads] = node_of
    row[consts] = np.arange(num_nodes, pad_sum)
    row[order] = np.arange(base, base + len(order))

    starts = _runs(level[order], ops[order], width[order])
    size = np.diff(np.append(starts, len(order)))
    spread = np.maximum(np.maximum.reduceat(arity[order], starts), 1) if len(order) else size
    cells = spread * size
    cell0 = np.cumsum(cells) - cells
    b_op, b_level = ops[order[starts]], level[order[starts]]

    bucket = np.repeat(np.arange(len(starts)), size)  # of each slot in ``order``
    at = np.empty(len(tape), dtype=np.intp)
    at[order] = np.arange(len(order))
    b = bucket[at[parent]]
    cell = cell0[b] + place * size[b] + at[parent] - starts[b]
    src = np.repeat(np.where(b_op == _PROD, pad_prod, pad_sum), cells)
    src[cell] = row[child]
    weight = np.ones(len(src))
    weight[cell] = coef
    bias_of = np.full(len(tape), -0.0)
    # a zero bias is not added where there are terms
    bias_of[sums] = [tape[s][1] for s in sums.tolist()]
    bias_of[sums[(arity[sums] > 0) & (bias_of[sums] == 0.0)]] = -0.0

    levels = []
    bounds = np.append(_runs(b_level), len(starts)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        first, last = int(cell0[lo]), int(cell0[hi - 1] + cells[hi - 1])
        r0, r1 = int(starts[lo]), int(starts[hi - 1] + size[hi - 1])
        slots = order[r0:r1]
        n_relu = int((ops[slots] == _RELU).sum())
        n_sums = int((ops[slots] != _PROD).sum())
        sum_cells = int(cells[lo:hi][b_op[lo:hi] != _PROD].sum())
        lv_coef = weight[first : first + sum_cells, None]
        lv_bias = bias_of[slots[:n_sums], None]
        spans = zip(
            b_op[lo:hi].tolist(),
            (cell0[lo:hi] - first).tolist(),
            spread[lo:hi].tolist(),
            (base + starts[lo:hi]).tolist(),
            size[lo:hi].tolist(),
        )
        levels.append(
            Level(
                relu=slice(base + r0, base + r0 + n_relu),
                recip=slice(base + r0 + n_relu, base + r0 + n_sums),
                src=src[first:last],
                buckets=list(spans),
                sum_cells=sum_cells,
                coef=None if (lv_coef == 1.0).all() else lv_coef,
                bias=None if ((lv_bias == 0.0) & np.signbit(lv_bias)).all() else lv_bias,
                recip_slots=slots[n_relu:n_sums],
            )
        )

    next_rows = np.arange(num_nodes)
    next_rows[[node_index[name] for name in node_slot]] = row[list(node_slot.values())]
    const_values = [tape[s][1] for s in consts.tolist()] + [-0.0, 1.0]
    return Schedule(
        num_rows=base + len(order),
        const_values=np.array(const_values, dtype=np.float64),
        levels=levels,
        next_rows=next_rows,
        reductions=len(starts),
        term_cells=len(parent),
        padded_cells=len(src),
    )


def _places(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., count - 1 for each count, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def _runs(*keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys."""
    change = np.zeros(len(keys[0]), dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


class Bound(NamedTuple):
    """One level's arrays at one batch width (see ``_bind``)."""

    level: Level
    cells: np.ndarray  # (src.size, width) gather target
    sum_cells: np.ndarray  # its first ``sum_cells`` rows
    coef: np.ndarray | None  # (sum_cells, width), contiguous
    buckets: list[tuple[bool, np.ndarray, np.ndarray]]  # (is_prod, terms, dst)
    sums: np.ndarray  # the relu and reciprocal rows of S
    bias: np.ndarray | None  # (sums, width), contiguous
    relu: np.ndarray | None
    recip: np.ndarray | None


def _bind(sched: Schedule, S: np.ndarray, scratch: np.ndarray) -> list[Bound]:
    """The views of ``S`` and ``scratch`` each level uses at S's width.

    Each level's coefficients and biases are expanded to contiguous
    (cells, width) and (sums, width) arrays, so numpy multiplies and adds
    them in one flat loop rather than one short loop per row.
    """
    width = S.shape[1]
    bound = []
    for lv in sched.levels:
        cells = scratch[: lv.src.size * width].reshape(lv.src.size, width)
        buckets = [
            (op is _PROD, cells[c : c + arity * n].reshape(arity, n, width), S[r : r + n])
            for op, c, arity, r, n in lv.buckets
        ]
        relu, recip = S[lv.relu], S[lv.recip]
        bound.append(
            Bound(
                level=lv,
                cells=cells,
                sum_cells=cells[: lv.sum_cells],
                coef=None if lv.coef is None else np.repeat(lv.coef, width, axis=1),
                buckets=buckets,
                sums=S[lv.relu.start : lv.recip.stop],
                bias=None if lv.bias is None else np.repeat(lv.bias, width, axis=1),
                relu=relu if relu.size else None,
                recip=recip if recip.size else None,
            )
        )
    return bound


def _evaluate(bound: list[Bound], S: np.ndarray) -> int | None:
    """Fill the level rows of ``S`` from its state and constant rows.

    ``bound`` is ``_bind`` of ``S``.  Returns the lowest tape slot whose
    reciprocal denominator was zero, or None.  Such a denominator is
    replaced by 1 so the step finishes without warnings: a tape-order
    evaluation would have stopped at the lowest such slot, and every
    slot below it depends on none above it.
    """
    single = S.shape[1] == 1
    zero_slot = None
    for lv, cells, sum_cells, coef, buckets, sums, bias, relu, recip in bound:
        # "clip" does not buffer the copy into ``out``; _schedule checked the rows
        S.take(lv.src, axis=0, out=cells, mode="clip")
        if coef is not None:
            np.multiply(sum_cells, coef, out=sum_cells)
        for is_prod, terms, dst in buckets:
            arity = len(terms)
            if arity == 1:
                # -0.0 + x, and a product of the one factor x, are x
                dst[...] = terms[0]
            elif arity == 2:
                (np.multiply if is_prod else np.add)(terms[0], terms[1], out=dst)
            elif is_prod:
                np.multiply.reduce(terms, axis=0, out=dst)
            elif single:
                # numpy would sum one value per term pairwise
                np.add.accumulate(terms, axis=0, out=terms)
                dst[...] = terms[-1]
            else:
                np.add.reduce(terms, axis=0, out=dst, initial=-0.0)
        if bias is not None:
            sums += bias
        if relu is not None:
            np.maximum(relu, 0.0, out=relu)
        if recip is not None:
            if not recip.all():
                hit = recip == 0.0
                first = int(lv.recip_slots[hit.any(axis=1)].min())
                zero_slot = first if zero_slot is None else min(zero_slot, first)
                recip[hit] = 1.0
            np.divide(1.0, recip, out=recip)
    return zero_slot


def _slot_owner(prog: Program, slot: int) -> str:
    for name, root in prog.node_slot.items():
        if root >= slot:
            return name
    return "?"


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Group the columns of ``keys`` (words, batch) by their bits.

    Returns the first column of each group and the group of every
    column, or None when every column is its own group.  Bits, not
    values, are compared, so a ``0.0`` and a ``-0.0`` stay apart.
    """
    bits = keys.view(np.uint64)
    bits = bits[(bits != bits[:, :1]).any(axis=1)]  # rows that tell columns apart
    if not len(bits):
        return np.zeros(1, dtype=np.intp), np.zeros(keys.shape[1], dtype=np.intp)
    cols = np.ascontiguousarray(bits.T)
    cols = cols.view(np.dtype((np.void, 8 * cols.shape[1]))).ravel()
    _, first, inverse = np.unique(cols, return_index=True, return_inverse=True)
    if len(first) == len(cols):
        return None
    return first, inverse


def _advance(
    prog: Program,
    state: np.ndarray,
    stream: np.ndarray,
    t0: int,
    t1: int,
    rows,
    fixed_point: tuple[int, int] | None = None,
    every: int = 1,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Run from the state at t0 to t1.

    Returns the state rows ``rows`` (a list or array of row indices) at
    the multiples of ``every`` in [t0, t1], (count, len(rows), batch);
    the full state at t1; the saturations; and the number of columns the
    schedule evaluated.  Only the previous full state is kept between
    updates.

    ``stream`` is (n_tokens, batch).  Each update evaluates the schedule
    on the previous state, zeroes the reset nodes when the input pointer
    advances, writes the current token into the input nodes, snaps to
    ``fixed_point`` = (integer_bits, fraction_bits) when given, and
    checks the declared value domains.  Columns that agree bit for bit
    on their state at t0 and on every token written since hold the same
    state, so the schedule runs on the first column of each such group
    and its result is copied to the rest before the token is written.
    """
    sched = prog.schedule
    period = prog.graph.rnn_time
    n_tokens = stream.shape[0]
    num_nodes, batch = state.shape
    # one gather scratch for every width, sized for the widest level at
    # the full batch (a scratch per width raised the peak memory of a run)
    scratch = np.empty(max((lv.src.size for lv in sched.levels), default=0) * batch)
    skipped = (t0 - 1) // every  # multiples of ``every`` before t0
    out = np.empty((t1 // every - skipped, len(rows), batch))
    if t0 % every == 0:
        out[0] = state[rows]
    prev = state
    groups = _group(state) if batch > 1 else None
    S = None
    saturation = evaluated = 0
    prev_idx = min((t0 - 1) // period + 1, n_tokens)
    for t in range(t0 + 1, t1 + 1):
        idx = min((t - 1) // period + 1, n_tokens)
        width = batch if groups is None else len(groups[0])
        if S is None or S.shape[1] != width:
            S = bound = None  # free the last width's arrays first (lower peak memory)
            S = np.empty((sched.num_rows, width))
            S[num_nodes : num_nodes + len(sched.const_values)] = sched.const_values[:, None]
            bound = _bind(sched, S, scratch)
        S[:num_nodes] = prev if groups is None else prev[:, groups[0]]
        zero_slot = _evaluate(bound, S)
        evaluated += width
        if zero_slot is not None:
            raise ReciprocalZeroError(_slot_owner(prog, zero_slot), t)
        new = S[sched.next_rows]
        if groups is not None:
            new = new[:, groups[1]]
        advanced = idx != prev_idx
        if advanced:
            new[prog.reset_cols] = 0.0
        tokens = stream[idx - 1]
        new[prog.input_cols] = tokens
        if fixed_point is not None:
            new, sat = quantize_array(new, *fixed_point)
            saturation += sat
        _run_checks(prog, new, t)
        if t % every == 0:
            out[t // every - skipped - 1] = new[rows]
        prev = new
        if groups is not None and (advanced or t == t0 + 1):
            keys = np.empty((2, batch), dtype=np.uint64)
            keys[0] = groups[1]
            keys[1] = np.asarray(tokens, dtype=np.float64).view(np.uint64)
            groups = _group(keys)
        prev_idx = idx
    return out, prev, saturation, evaluated


def quantize_array(
    x: np.ndarray, integer_bits: int, fraction_bits: int
) -> tuple[np.ndarray, int]:
    """Signed fixed-point snap: floor the fraction, saturate the integer.

    Magnitudes are quantized and the sign reapplied.  Returns the snapped
    array and the number of integer saturation events.
    """
    sign = np.sign(x)
    mag = np.abs(x)
    ipart = np.floor(mag)
    frac = mag - ipart
    cap = float(2**integer_bits)
    saturated = int((ipart > cap).sum())
    scale = float(2**fraction_bits)
    snapped = np.minimum(ipart, cap) + np.floor(frac * scale) / scale
    return sign * snapped, saturated


def _check_tokens(graph: RnnGraph, tokens: np.ndarray) -> None:
    """Every token must be an integer in [0, alphabet_size) when declared."""
    size = graph.meta.get("alphabet_size")
    if size is None:
        return
    ok = (tokens >= 0) & (tokens < size) & (tokens == np.floor(tokens))
    if not ok.all():
        bad = float(tokens[~ok][0])
        raise ValidationError(
            f"token {bad} is not in the alphabet {{0, ..., {int(size) - 1}}}"
        )


def run(
    graph: RnnGraph,
    stream,
    total_steps: int | None = None,
    fixed_point: tuple[int, int] | None = None,
    program: Program | None = None,
) -> ExecutionTrace:
    """Run the graph on a token stream (optionally a batch of streams).

    ``stream`` has shape (n_tokens,) or (n_tokens, batch); every input
    node receives the current token.  When the graph declares
    ``meta["alphabet_size"]``, every token must be an integer in
    [0, alphabet_size).  ``fixed_point`` = (integer_bits,
    fraction_bits) quantizes every node value after every update.

    The trace keeps the output at the multiples of ``rnn_time``; the run
    itself updates, snaps and checks every node at every step.  The
    batch must fit the enumeration cap, which is checked before anything
    is allocated.  ``program``, when given, is ``graph`` compiled by
    ``compile_graph``, the same graph object.
    """
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    n_tokens, batch = arr.shape
    if n_tokens < 1:
        raise ValidationError("empty input stream")
    _check_tokens(graph, arr)
    period = graph.rnn_time
    T = total_steps if total_steps is not None else n_tokens * period
    if not 1 <= T <= n_tokens * period:
        raise ValidationError(
            f"total_steps {T} outside [1, stream capacity {n_tokens * period}]"
        )
    cap = enumeration_cap()
    if batch > cap:
        nodes = len(graph.nodes)
        raise SizingError(
            f"a run over {batch} streams exceeds the enumeration cap {cap}: "
            f"its state of {nodes} nodes takes {8 * nodes * batch} bytes and "
            f"its trace {8 * (T // period) * batch} bytes"
        )

    prog = program if program is not None else compile_graph(graph)
    if prog.graph is not graph:
        raise ValidationError("the program was compiled from another graph")
    state, saturation = _start(prog, arr, fixed_point)
    out_row = [prog.node_index[graph.output_id]]
    values, _, sat, evaluated = _advance(
        prog, state, arr, 1, T, out_row, fixed_point, every=period
    )
    return ExecutionTrace(
        graph=graph,
        values=values,
        total_steps=T,
        saturation_events=saturation + sat,
        evaluated_columns=evaluated,
    )


def _start(
    prog: Program, stream: np.ndarray, fixed_point: tuple[int, int] | None
) -> tuple[np.ndarray, int]:
    """The state at t = 1 of ``stream``'s columns, and its saturations.

    Initial values with the first token written, snapped to
    ``fixed_point`` when given, and checked.
    """
    state = prog.new_state(stream.shape[1])
    state[prog.input_cols] = stream[0]
    saturation = 0
    if fixed_point is not None:
        state, saturation = quantize_array(state, *fixed_point)
    _run_checks(prog, state, 1)
    return state, saturation


def _run_checks(prog: Program, state: np.ndarray, t: int) -> None:
    for col, name, allowed in prog.checks:
        vals = state[col]
        for v in np.unique(vals):
            if float(v) not in allowed:
                raise ValidationError(
                    f"node {name!r} emitted {float(v)} at t={t}, "
                    f"allowed values {sorted(allowed)}"
                )

