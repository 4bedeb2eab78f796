"""Synchronized enumeration: replay every length-k continuation on schedule.

Given a token-per-T circuit Q, build a circuit U that, for each input
index past the chosen offset, iterates over all |Sigma|^k candidate
windows z and produces Q's output on anchor-prefix . z_{:r+1} at fixed
instants, while Q's own state for the anchor prefix is preserved in a
mirrored hidden copy.  One input loop lasts (|Sigma|^k + 1) * k * tau
steps: |Sigma|^k string loops of k digit loops (tau steps each), then a
null phase in which the anchor copy catches up when the anchor moves.

A circuit has one scaffold (``build_scaffold``, 2k + 7 nodes under one
prefix), and each of its enumerating components reads it and adds only
its own nodes, a ``Part``.  Scaffold nodes:
  in  the input node, the circuit's only one
  w0  step counter inside the input loop, range [1, T_U]
  u0  current index minus latest anchor, range [1, k]
  w   step counter inside the digit loop, range [1, tau]
  u   digit index being processed at the next step, range [1, k]
  vc  input-index counter saturating at offset + 1
  y1..yk     tokens since the anchor (raw token values)
  e1..ek,ve  base-|Sigma| window counter (e1 least significant) and the
             digit emitter feeding the scratch copy
All but the input are hidden.  The enumerator of Q adds, under its own
prefix, |Q| + |H_Q| - 1 nodes, |H_Q| of them hidden:
  H.*  mirror of Q's hidden set pinned to the anchor prefix (hidden)
  Ht.* scratch mirror consuming emitted digits
  R.*  mirror of Q's remaining nodes, recomputed per digit loop

Every node but ve is an ``rnn.expr`` gadget: w0 and w are ``cycle``s,
u0 and u gated ``cycle``s, vc a ``saturate``, and y, e and the mirrors
``hold``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import PreconditionError
from ..rnn.expr import (
    base_c_increment,
    const,
    cycle,
    hold,
    ind_eq,
    ind_ge,
    ind_le,
    node,
    prod,
    relu,
    saturate,
    substitute,
)
from ..rnn.graph import NodeSpec, RnnGraph

MAX_WINDOW_ENUM = 4096


@dataclass(frozen=True)
class Part:
    """Nodes a component adds to the scaffold it reads: all of them, the
    names of the hidden ones, and the names of its outputs."""

    nodes: tuple[NodeSpec, ...]
    hidden: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class EnumScaffold:
    """Nodes, names and timing constants of one circuit's scaffold."""

    prefix: str
    base: int
    k: int
    tau: int
    i0_star: int
    period: int  # T_U
    nodes: tuple[NodeSpec, ...] = field(default=(), repr=False, compare=False)

    @property
    def strings(self) -> int:
        return self.base**self.k

    @property
    def input(self) -> str:
        return self.name("in")

    def name(self, raw: str) -> str:
        return self.prefix + raw

    # condition helpers, all on previous-step values
    def at_loop_end(self):
        return ind_eq(self.name("w0"), float(self.period))

    def in_enum_phase(self):
        return ind_le(self.name("w0"), float(self.strings * self.k * self.tau))

    def at_string_start_next(self):
        return prod(
            ind_eq(self.name("w"), float(self.tau)),
            ind_eq(self.name("u"), 1.0),
        )

    def in_initial_phase(self):
        return ind_le(self.name("vc"), float(self.i0_star))

    def graph(self, *parts: Part, output_id: str, kind: str, **extra) -> RnnGraph:
        """The scaffold and ``parts`` as one graph: the scaffold's input is
        its only input, and the scaffold's other nodes and every part's
        hidden nodes are its hidden set.  ``extra`` joins the meta."""
        return RnnGraph(
            nodes=[*self.nodes, *(spec for part in parts for spec in part.nodes)],
            input_ids=(self.input,),
            output_id=output_id,
            hidden_ids=tuple(spec.name for spec in self.nodes[1:])
            + tuple(name for part in parts for name in part.hidden),
            rnn_time=self.period,
            meta={
                "kind": kind,
                "schedule": "multiples",
                "k": self.k,
                "tau": self.tau,
                "base": self.base,
                "i0_star": self.i0_star,
                **extra,
                "depth_bound": 20,
            },
        )


def build_scaffold(
    prefix: str, base: int, k: int, tau: int, i0_star: int
) -> EnumScaffold:
    """The input, counter, storage and enumerator nodes of one circuit.

    The first node is the input ``prefix + "in"``; every later one is
    hidden.
    """
    if not 0 <= i0_star <= k - 1:
        raise PreconditionError(f"offset {i0_star} outside [0, {k - 1}]")
    B = base**k
    if B > MAX_WINDOW_ENUM:
        raise PreconditionError(
            f"|Sigma|^k = {B} exceeds the enumeration guard {MAX_WINDOW_ENUM}"
        )
    sc = EnumScaffold(prefix, base, k, tau, i0_star, (B + 1) * k * tau)
    nm = sc.name

    # u0 bumps at loop ends; u bumps one step before w wraps, naming the
    # digit of the coming step
    u0_init = 1.0 if i0_star == 0 else float(k + 1 - i0_star)
    before_wrap = ind_eq(nm("w"), tau - 1.0)
    nodes = [
        NodeSpec(sc.input, 0.0, None),
        NodeSpec(nm("w0"), 1.0, cycle(nm("w0"), sc.period)),
        NodeSpec(nm("u0"), u0_init, cycle(nm("u0"), k, sc.at_loop_end())),
        NodeSpec(nm("w"), 1.0, cycle(nm("w"), tau)),
        NodeSpec(nm("u"), 1.0, cycle(nm("u"), k, before_wrap)),
        NodeSpec(nm("vc"), 1.0, saturate(nm("vc"), i0_star + 1, sc.at_loop_end())),
    ]

    # Y: tokens since the anchor; cleared when the anchor moves
    clear = prod(sc.at_loop_end(), ind_eq(nm("u0"), float(k)))
    for j in range(1, k + 1):
        store = prod(ind_eq(nm("w0"), 1.0), ind_eq(nm("u0"), float(j)))
        cases = [(clear, const(0.0)), (store, node(sc.input))]
        nodes.append(NodeSpec(nm(f"y{j}"), 0.0, hold(nm(f"y{j}"), cases)))

    # E: base-|Sigma| window counter, bumped at the second-to-last step of
    # each string loop, cleared at loop ends; e1 is least significant
    digits = [nm(f"e{r}") for r in range(1, k + 1)]
    inc = base_c_increment(base, k, digits)
    bump = prod(before_wrap, ind_eq(nm("u"), float(k)))
    for r, inc_expr in enumerate(inc, start=1):
        cases = [(sc.at_loop_end(), const(0.0)), (bump, inc_expr)]
        nodes.append(NodeSpec(nm(f"e{r}"), 0.0, hold(nm(f"e{r}"), cases)))
    # ve emits the digit processed at the coming step: string character
    # r corresponds to counter digit k+1-r
    emit_terms = [
        (1.0, prod(ind_eq(nm("u"), float(k + 1 - r)), node(nm(f"e{r}"))))
        for r in range(1, k + 1)
    ]
    nodes.append(
        NodeSpec(
            nm("ve"),
            0.0,
            prod(
                ind_le(nm("w0"), float(B * k * tau - 1)),
                relu(0.0, *emit_terms),
            ),
        )
    )
    return replace(sc, nodes=tuple(nodes))


def enumerator_part(q_graph: RnnGraph, sc: EnumScaffold, prefix: str) -> Part:
    """Q's mirrors on the scaffold ``sc``, named under ``prefix``.

    Requires tau >= T_Q + 2; Q must have a single input node and a
    non-hidden output.  The part's output is the R mirror of Q's output.
    """
    t_q = q_graph.rnn_time
    k, tau = sc.k, sc.tau
    if tau < t_q + 2:
        raise PreconditionError(f"need tau >= T_inner + 2 = {t_q + 2}, got {tau}")
    if len(q_graph.input_ids) != 1:
        raise PreconditionError("enumerated circuit must have one input node")
    if q_graph.output_id in q_graph.hidden_ids:
        raise PreconditionError("enumerated circuit's output must be non-hidden")

    q_in = q_graph.input_ids[0]
    hidden_q = list(q_graph.hidden_ids)
    rest_q = [
        n.name
        for n in q_graph.nodes
        if n.name not in q_graph.hidden_ids and n.name != q_in
    ]
    nm = sc.name
    B, period = sc.strings, sc.period
    spec_of = q_graph.node_map()
    nodes = []

    mirror_h = {h: prefix + "H." + h for h in hidden_q}
    mirror_ht = {h: prefix + "Ht." + h for h in hidden_q}
    mirror_r = {r: prefix + "R." + r for r in rest_q}

    run_window_h = ind_le(nm("w"), float(t_q))  # anchor-copy replay RUNs
    run_window = ind_le(nm("w"), float(t_q - 1))  # per-digit RUNs
    at_w_tau = ind_eq(nm("w"), float(tau))
    final_phase = ind_ge(nm("w0"), float(B * k * tau))
    anchor_moves = ind_eq(nm("u0"), float(k))
    initial = sc.in_initial_phase()

    # H: anchor-prefix mirror of Q's hidden set
    direct_map = {**mirror_h, q_in: sc.input}
    replay_maps = [{**mirror_h, q_in: nm(f"y{j}")} for j in range(1, k + 1)]
    for h in hidden_q:
        spec = spec_of[h]
        direct = substitute(spec.expr, direct_map)
        cases = [
            (prod(ind_le(nm("w0"), float(t_q)), initial), direct),
            (initial, node(mirror_h[h])),
        ]
        for j, replay_map in enumerate(replay_maps, start=1):
            replay = substitute(spec.expr, replay_map)
            cases.append(
                (
                    prod(
                        final_phase,
                        anchor_moves,
                        run_window_h,
                        ind_eq(nm("u"), float(j)),
                    ),
                    replay,
                )
            )
        nodes.append(NodeSpec(mirror_h[h], spec.init, hold(mirror_h[h], cases)))

    # Ht: scratch mirror consuming emitted digits
    scratch_map = {**mirror_ht, q_in: nm("ve")}
    for h in hidden_q:
        spec = spec_of[h]
        scratch = substitute(spec.expr, scratch_map)
        cases = [
            (sc.at_string_start_next(), node(mirror_h[h])),
            (initial, node(mirror_h[h])),
            (prod(run_window, sc.in_enum_phase()), scratch),
            (prod(at_w_tau, sc.in_enum_phase()), scratch),
        ]
        nodes.append(NodeSpec(mirror_ht[h], spec.init, hold(mirror_ht[h], cases)))

    # R: readout mirror, reset per string loop
    r_map = {**mirror_ht, **mirror_r, q_in: nm("ve")}
    d_map = {**mirror_h, **mirror_r, q_in: sc.input}
    for r in rest_q:
        spec = spec_of[r]
        scratch = substitute(spec.expr, r_map)
        direct = substitute(spec.expr, d_map)
        cases = [
            (prod(initial, ind_le(nm("w0"), float(t_q - 1))), direct),
            (prod(initial, ind_le(nm("w0"), float(period - 1))), node(mirror_r[r])),
            (initial, const(0.0)),
            (sc.at_string_start_next(), const(0.0)),
            (prod(run_window, sc.in_enum_phase()), scratch),
            (prod(at_w_tau, sc.in_enum_phase()), scratch),
        ]
        nodes.append(NodeSpec(mirror_r[r], 0.0, hold(mirror_r[r], cases)))

    return Part(
        tuple(nodes), tuple(mirror_h.values()), (mirror_r[q_graph.output_id],)
    )


def build_sync_enumerator(
    q_graph: RnnGraph,
    k: int,
    i0_star: int,
    tau: int,
    base: int,
    prefix: str = "",
) -> tuple[RnnGraph, EnumScaffold]:
    """Synchronized-enumeration circuit U: Q's mirrors on a scaffold of
    their own, both under ``prefix``."""
    sc = build_scaffold(prefix, base, k, tau, i0_star)
    u = enumerator_part(q_graph, sc, prefix)
    graph = sc.graph(
        u, output_id=u.outputs[0], kind="sync_enumerator", T_inner=q_graph.rnn_time
    )
    return graph, sc


def case1_sample_time(sc: EnumScaffold, i: int) -> int:
    """Instant where the untouched-prefix output is read: i * T_U."""
    return i * sc.period


def window_sample_time(sc: EnumScaffold, i: int, j: int, r: int) -> int:
    """Canonical settled instant for (input i, string j, digit r)."""
    return (i - 1) * sc.period + (j - 1) * sc.k * sc.tau + r * sc.tau - 1
