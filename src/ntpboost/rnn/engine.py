"""Synchronous execution of circuit graphs.

All non-input nodes update simultaneously from the previous step's
values; input nodes are overwritten from the stream, whose pointer
advances every ``rnn_time`` steps.  Time is 1-based: the state at t = 1
is the initial values with the first token applied, matching the
counter conventions of the constructions.

Expressions are compiled once into a flat tape, and the tape into a
level schedule.  The tape has one slot per distinct subtree: each
interned expression object (see ``expr``) is lowered once, and objects
whose entries agree over their child slots, ``(op, bias, ((coef, slot),
...))`` with floats compared by value, share the slot of the first (so
a ``0.0`` and a ``-0.0`` bias on otherwise equal sums merge).  A slot's
level is 0 for constants and node reads and one more than its deepest
child otherwise; slots of one level with the same operator and arity
form a group, and each group is evaluated for the whole batch at once:
one gather of its children's rows of the slot array, one coefficient
multiply, one reduction over the term axis, the bias, then relu or the
reciprocal.
Every update of ``run``, ``step`` and the scrubbing harness goes
through the one step function ``_advance``.

The schedule gives the same bytes as evaluating the tape slot by slot
with a left-to-right sum:

* terms are added in tape order, ``((c1 x1 + c2 x2) + c3 x3) + ...``:
  numpy reduces the term axis of a (terms, group, batch) array
  elementwise, and a batch of one (where numpy would switch to pairwise
  summation) accumulates instead;
* the bias is added last, and where it is zero nothing is added: the
  schedule adds -0.0, which leaves every value (-0.0 included) as it is,
  so the sign of a zero sum is kept;
* products multiply their factors left to right, and a term-less sum is
  the bias itself.

A zero reciprocal denominator is reported for the lowest tape slot that
hits zero in that step, the slot a tape-order evaluation would stop at.
A run can carry a whole batch of streams at once (used to sweep every
document of Sigma^n in one pass).  Optional fixed-point mode quantizes
every node value after every update and counts saturation events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReciprocalZeroError, ValidationError
from .expr import Const, Node, Prod, Recip, Relu
from .graph import RnnGraph


@dataclass
class ExecutionTrace:
    """Per-step values of every node, plus the input pointer trajectory."""

    graph: RnnGraph
    values: np.ndarray  # shape (T, num_nodes, batch)
    input_index: np.ndarray  # shape (T,), 1-based token index per step
    node_index: dict[str, int]
    saturation_events: int = 0

    @property
    def total_steps(self) -> int:
        return self.values.shape[0]

    def value(self, name: str, t: int) -> np.ndarray:
        """Value(s) of a node at 1-based time t (batch vector)."""
        return self.values[t - 1, self.node_index[name]]

    def scalar(self, name: str, t: int) -> float:
        v = self.value(name, t)
        if v.size != 1:
            raise ValidationError("scalar() on a batched trace; use value()")
        return float(v[0])

    def output_at_multiples(self) -> dict[int, np.ndarray]:
        """Output node at times i * rnn_time, i = 1, 2, ..."""
        period = self.graph.rnn_time
        out = {}
        i = 1
        while i * period <= self.total_steps:
            out[i] = self.value(self.graph.output_id, i * period)
            i += 1
        return out


# -- tape compilation --------------------------------------------------------

_CONST, _NODE, _RELU, _RECIP, _PROD = range(5)


@dataclass
class Group:
    """Tape slots of one level, operator and arity, evaluated together.

    Their values live in rows ``rows`` of the slot array; ``src`` (terms,
    slots) holds the rows of their children, ``coef`` (terms, slots, 1)
    the weights (None when all are 1), ``bias`` (slots, 1) the biases
    (None when a group with terms has only zero biases), and ``slots``
    the tape slots, for naming the node of a zero reciprocal.
    """

    op: int
    rows: slice
    src: np.ndarray
    coef: np.ndarray | None
    bias: np.ndarray | None
    slots: np.ndarray


@dataclass
class Schedule:
    """The tape laid out as rows of one (num_rows, batch) slot array.

    Rows [0, num_nodes) hold the previous state, the next ``const_values``
    rows the tape's constants, and the rest the groups in level order.
    ``next_rows`` is the row each node's new value is read from (its own
    row for input nodes, which the stream then overwrites).
    """

    num_rows: int
    const_values: np.ndarray
    groups: list[Group]
    next_rows: np.ndarray


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


def compile_graph(graph: RnnGraph) -> Program:
    node_index = {n.name: j for j, n in enumerate(graph.nodes)}
    tape: list = []
    slot_of: dict = {}  # tape entry -> its slot
    lowered: dict[int, int] = {}  # id(expr) -> slot; the graph keeps each alive

    def lower(expr) -> int:
        slot = lowered.get(id(expr))
        if slot is not None:
            return slot
        if isinstance(expr, Const):
            entry = (_CONST, expr.value)
        elif isinstance(expr, Node):
            entry = (_NODE, node_index[expr.name])
        elif isinstance(expr, Relu):
            entry = (_RELU, expr.bias, tuple((c, lower(e)) for c, e in expr.terms))
        elif isinstance(expr, Recip):
            entry = (_RECIP, expr.bias, tuple((c, lower(e)) for c, e in expr.terms))
        elif isinstance(expr, Prod):
            entry = (_PROD, tuple(lower(f) for f in expr.factors))
        else:
            raise ValidationError(f"unknown expression {expr!r}")
        slot = slot_of.setdefault(entry, len(tape))
        if slot == len(tape):
            tape.append(entry)
        lowered[id(expr)] = slot
        return slot

    node_slot = {}
    for spec in graph.nodes:
        if spec.expr is not None:
            node_slot[spec.name] = lower(spec.expr)

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


def _schedule(tape, graph, node_index, node_slot) -> Schedule:
    num_nodes = len(graph.nodes)
    row = [0] * len(tape)
    level = [0] * len(tape)
    consts = []
    members: dict = {}
    for slot, entry in enumerate(tape):
        op = entry[0]
        if op is _NODE:
            row[slot] = entry[1]
        elif op is _CONST:
            row[slot] = num_nodes + len(consts)
            consts.append(entry[1])
        else:
            children = entry[1] if op is _PROD else [s for _, s in entry[2]]
            level[slot] = 1 + max((level[s] for s in children), default=0)
            members.setdefault((level[slot], op, len(children)), []).append(slot)

    groups = []
    top = num_nodes + len(consts)
    for key in sorted(members):
        _, op, arity = key
        slots = members[key]
        for j, slot in enumerate(slots):
            row[slot] = top + j
        rows = slice(top, top + len(slots))
        top += len(slots)
        coef = bias = None
        if op is _PROD:
            children = [tape[slot][1] for slot in slots]
        else:
            children = [[s for _, s in tape[slot][2]] for slot in slots]
            weights = np.array([[c for c, _ in tape[slot][2]] for slot in slots])
            bias = np.array([tape[slot][1] for slot in slots])[:, None]
            if arity:  # a term-less sum is its bias, as it is
                if not (weights == 1.0).all():
                    coef = weights.T[:, :, None]
                # a zero bias is not added: -0.0 is the additive identity
                # that keeps the sign of a zero sum
                zero = bias == 0.0
                bias = None if zero.all() else np.where(zero, -0.0, bias)
        src = np.array([[row[s] for s in ch] for ch in children], dtype=np.intp)
        src = src.reshape(len(slots), arity).T
        groups.append(Group(op, rows, src, coef, bias, np.array(slots)))

    next_rows = np.arange(num_nodes)
    for name, slot in node_slot.items():
        next_rows[node_index[name]] = row[slot]
    return Schedule(
        num_rows=top,
        const_values=np.array(consts, dtype=np.float64),
        groups=groups,
        next_rows=next_rows,
    )


def _evaluate(sched: Schedule, S: np.ndarray) -> int | None:
    """Fill the group rows of ``S`` from its state and constant rows.

    Returns the lowest tape slot whose reciprocal denominator was zero,
    or None.  Such a denominator is replaced by 1 so the step finishes
    without warnings: a tape-order evaluation would have stopped at the
    lowest such slot, and every slot below it depends on none above it.
    """
    single = S.shape[1] == 1
    zero_slot = None
    for g in sched.groups:
        dst = S[g.rows]
        if g.src.shape[0]:
            terms = S.take(g.src, axis=0)
            if g.op is _PROD:
                np.multiply.reduce(terms, axis=0, out=dst)
                continue
            if g.coef is not None:
                terms *= g.coef
            if single:
                # numpy would sum one value per term pairwise
                np.add.accumulate(terms, axis=0, out=terms)
                dst[...] = terms[-1]
            else:
                np.add.reduce(terms, axis=0, out=dst)
            if g.bias is not None:
                dst += g.bias
        else:
            dst[...] = g.bias
        if g.op is _RELU:
            np.maximum(dst, 0.0, out=dst)
            continue
        hit = dst == 0.0
        if hit.any():
            first = int(g.slots[hit.any(axis=1)].min())
            zero_slot = first if zero_slot is None else min(zero_slot, first)
            dst[hit] = 1.0
        np.divide(1.0, dst, out=dst)
    return zero_slot


def _slot_owner(prog: Program, slot: int) -> str:
    for name, root in prog.node_slot.items():
        if root >= slot:
            return name
    return "?"


def _advance(
    prog: Program,
    state: np.ndarray,
    stream: np.ndarray,
    t0: int,
    t1: int,
    fixed_point: tuple[int, int] | None = None,
) -> tuple[np.ndarray, int]:
    """States at times t0..t1 given the state at t0, and the saturations.

    ``stream`` is (n_tokens, batch).  Each update evaluates the schedule
    on the previous state, zeroes the reset nodes when the input pointer
    advances, writes the current token into the input nodes, snaps to
    ``fixed_point`` = (integer_bits, fraction_bits) when given, and
    checks the declared value domains.
    """
    sched = prog.schedule
    period = prog.graph.rnn_time
    n_tokens = stream.shape[0]
    num_nodes, batch = state.shape
    out = np.empty((t1 - t0 + 1, num_nodes, batch))
    out[0] = state
    S = np.empty((sched.num_rows, batch))
    S[num_nodes : num_nodes + len(sched.const_values)] = sched.const_values[:, None]
    saturation = 0
    prev_idx = min((t0 - 1) // period + 1, n_tokens)
    for t in range(t0 + 1, t1 + 1):
        idx = min((t - 1) // period + 1, n_tokens)
        S[:num_nodes] = out[t - t0 - 1]
        zero_slot = _evaluate(sched, S)
        if zero_slot is not None:
            raise ReciprocalZeroError(_slot_owner(prog, zero_slot), t)
        new = S[sched.next_rows]
        if idx != prev_idx:
            new[prog.reset_cols] = 0.0
        new[prog.input_cols] = stream[idx - 1]
        if fixed_point is not None:
            new, sat = quantize_array(new, *fixed_point)
            saturation += sat
        _run_checks(prog, new, t)
        out[t - t0] = new
        prev_idx = idx
    return out, saturation


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
    """
    prog = program if program is not None else compile_graph(graph)
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

    state = prog.new_state(batch)
    state[prog.input_cols] = arr[0]
    saturation = 0
    if fixed_point is not None:
        state, saturation = quantize_array(state, *fixed_point)
    _run_checks(prog, state, 1)
    values, sat = _advance(prog, state, arr, 1, T, fixed_point)
    return ExecutionTrace(
        graph=graph,
        values=values,
        input_index=np.minimum(np.arange(T) // period + 1, n_tokens),
        node_index=dict(prog.node_index),
        saturation_events=saturation + sat,
    )


def _run_checks(prog: Program, state: np.ndarray, t: int) -> None:
    for col, name, allowed in prog.checks:
        vals = state[col]
        for v in np.unique(vals):
            if float(v) not in allowed:
                raise ValidationError(
                    f"node {name!r} emitted {float(v)} at t={t}, "
                    f"allowed values {sorted(allowed)}"
                )


def step(graph: RnnGraph, state: dict[str, float], current_input: float) -> dict:
    """One synchronous update from a named state (single-step primitive).

    The update is time step 2 of a one-token stream, so no reset fires.
    """
    prog = compile_graph(graph)
    old = np.array([[state[n.name]] for n in graph.nodes], dtype=np.float64)
    states, _ = _advance(prog, old, np.array([[float(current_input)]]), 1, 2)
    return {n.name: float(states[1, j, 0]) for j, n in enumerate(graph.nodes)}
