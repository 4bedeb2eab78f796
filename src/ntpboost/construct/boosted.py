"""Assembly of the boosted circuit and the doubling cross-check oracle.

The efficient construction builds one scaffold (input, counters, token
store and window counter) and wires the f1, f2 and g components, which
all read it, into two per-input-loop accumulators w1 = sum f1*f2*g1 and
w2 = sum f1*f2*g2 over candidate windows, and an output node computing
their ratio at the end of each input loop.  Node counts match the
closed-form accounting exactly.

The simple construction keeps two full copies of the model circuit (one
pinned to the anchor prefix, one scratch) and likewise for the
distinguisher, copying entire states instead of hidden sets, on a
scaffold it shares with its g component.  It never relies on hidden-set
sufficiency, which is what makes it an independent oracle for the
efficient construction.

``_full_copy_main`` and ``_full_copy_scratch`` repeat the enumerator's
H (anchor) and Ht (scratch) case schedules on purpose instead of sharing
a schedule builder: a fault in a shared builder (a wrong phase gate, an
off-by-one replay window) would enter both constructions alike, their
outputs would still agree, and ``cross_construction`` could not catch it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PreconditionError, ValidationError
from ..rnn.expr import (
    collector_paused,
    const,
    exp_binary,
    free_nodes,
    hold,
    ind_eq,
    ind_ge,
    ind_le,
    node,
    prod,
    recip,
    relu,
    substitute,
)
from ..rnn.graph import NodeSpec, RnnGraph
from .components import f1_part, f2_part, g_part
from .enumerator import EnumScaffold, Part, build_scaffold


@dataclass(frozen=True)
class ConstructionReport:
    """Built node/hidden/time counts against the closed-form accounting."""

    built_size: int
    built_hidden: int
    built_time: int
    formula_size: int
    formula_hidden: int
    formula_time: int
    equivalence_checked: bool = False

    def __post_init__(self):
        if (
            self.built_size != self.formula_size
            or self.built_hidden != self.formula_hidden
            or self.built_time != self.formula_time
        ):
            raise ValidationError(
                f"construction accounting mismatch: built "
                f"({self.built_size}, {self.built_hidden}, {self.built_time}) "
                f"vs formula ({self.formula_size}, {self.formula_hidden}, "
                f"{self.formula_time})"
            )


# Node counts: the scaffold 2k + 7 (2k + 6 hidden), f1 |Q| + |H_Q| (|H_Q|
# hidden), f2 |D| + |H_D| (|H_D| hidden), g k + 2, the combiner 3; the
# doubling construction's four copies 2|Q| + 2|D| - 4, plus u1 and u2.
def boosted_size_formula(q_size, q_hidden, d_size, d_hidden, k) -> int:
    return q_size + q_hidden + d_size + d_hidden + 3 * k + 12


def boosted_hidden_formula(q_hidden, d_hidden, k) -> int:
    return q_hidden + d_hidden + 2 * k + 6


def boosted_simple_size_formula(q_size, d_size, k) -> int:
    return 2 * q_size + 2 * d_size + 3 * k + 10


def boosted_time_formula(base, k, t_q, t_d) -> int:
    return (base**k + 1) * k * (max(t_q, t_d) + 4)


def _combiner_nodes(
    sc: EnumScaffold,
    f1_out: str,
    f2_out: str,
    g_v1: str,
    g_v2: str,
) -> list[NodeSpec]:
    """Accumulators and the ratio output, clocked off ``sc``'s counters."""
    nm = sc.name
    accumulate = prod(
        ind_eq(nm("w"), float(sc.tau - 1)),
        ind_eq(nm("u"), float(sc.k)),
        sc.in_enum_phase(),
    )
    nodes = []
    for acc, g_v in (("w1", g_v1), ("w2", g_v2)):
        term = prod(node(f1_out), node(f2_out), node(g_v))
        cases = [
            (sc.at_loop_end(), const(0.0)),
            (accumulate, relu(0.0, (1.0, acc), (1.0, term))),
        ]
        nodes.append(NodeSpec(acc, 0.0, hold(acc, cases)))
    # the ratio is computed once per loop; off the consuming instant the
    # denominator gets +1 so the reciprocal can never hit zero while the
    # selector discards the branch
    before_end = ind_eq(nm("w0"), float(sc.period - 1))
    consuming = prod(before_end, ind_ge(nm("vc"), float(sc.i0_star + 1)))
    guarded = recip(1.0, (1.0, node("w2")), (-1.0, consuming))
    cases = [
        (sc.in_initial_phase(), node(f1_out)),
        (before_end, prod(node("w1"), guarded)),
    ]
    return nodes + [NodeSpec("out", 0.0, hold("out", cases))]


def _check_readout(graph: RnnGraph, role: str) -> None:
    """Refuse a graph with a node outside its hidden and input sets that
    reads another such node: that node carries state within a token, and
    the enumerator copies hidden sets only."""
    inner = set(graph.input_ids) | set(graph.hidden_ids)
    for spec in graph.nodes:
        if spec.name not in inner and not free_nodes(spec.expr) <= inner:
            outer = sorted(free_nodes(spec.expr) - inner)
            raise PreconditionError(
                f"{role} node {spec.name!r} is neither hidden nor input and reads "
                f"{outer}, which are neither: the efficient construction needs "
                f"every such node to read only hidden and input nodes"
            )


@collector_paused
def build_boosted_rnn(
    q_graph: RnnGraph,
    d_graph: RnnGraph,
    k: int,
    alpha: float,
    i0_star: int,
    base: int,
) -> tuple[RnnGraph, ConstructionReport]:
    """Efficient boosted circuit; output at i*T is the boosted conditional.

    tau is pinned at max(T_Q, T_D) + 4 so the accounting is exact.  Every
    node of Q and D outside its hidden and input sets must read only hidden
    and input nodes (a ``PreconditionError`` names the first that does
    not); the table circuits are such readouts, boosted circuits are not.
    """
    _check_readout(q_graph, "Q")
    _check_readout(d_graph, "D")
    tau = max(q_graph.rnn_time, d_graph.rnn_time) + 4
    sc = build_scaffold("c.", base, k, tau, i0_star)
    f1 = f1_part(q_graph, sc, "f1.")
    f2 = f2_part(d_graph, sc, alpha, "f2.")
    g = g_part(sc, "g.")
    combiner = _combiner_nodes(sc, f1.outputs[0], f2.outputs[0], *g.outputs)
    graph = sc.graph(
        f1, f2, g, Part(combiner),
        output_id="out", kind="boosted", alphabet_size=base, alpha=alpha,
    )
    report = ConstructionReport(
        built_size=graph.size,
        built_hidden=graph.hidden_size,
        built_time=graph.rnn_time,
        formula_size=boosted_size_formula(
            q_graph.size, q_graph.hidden_size, d_graph.size, d_graph.hidden_size, k
        ),
        formula_hidden=boosted_hidden_formula(
            q_graph.hidden_size, d_graph.hidden_size, k
        ),
        formula_time=boosted_time_formula(
            base, k, q_graph.rnn_time, d_graph.rnn_time
        ),
    )
    return graph, report


# ---------------------------------------------------------------------------
# the doubling construction


def _full_copy_main(g_src: RnnGraph, sc: EnumScaffold, prefix: str) -> list[NodeSpec]:
    """Anchor copy of an entire circuit: run in the initial phase and the
    anchor-advance replay, hold otherwise."""
    nm = sc.name
    t_inner = g_src.rnn_time
    src_in = g_src.input_ids[0]
    names = {n.name: prefix + n.name for n in g_src.nodes if n.name != src_in}
    initial = sc.in_initial_phase()
    final_phase = ind_ge(nm("w0"), float(sc.strings * sc.k * sc.tau))
    anchor_moves = ind_eq(nm("u0"), float(sc.k))
    direct_map = {**names, src_in: sc.input}
    replay_maps = [{**names, src_in: nm(f"y{j}")} for j in range(1, sc.k + 1)]
    nodes = []
    for spec in g_src.nodes:
        if spec.name == src_in:
            continue
        direct = substitute(spec.expr, direct_map)
        cases = [
            (prod(ind_le(nm("w0"), float(t_inner)), initial), direct),
            (initial, node(names[spec.name])),
        ]
        for j, replay_map in enumerate(replay_maps, start=1):
            replay = substitute(spec.expr, replay_map)
            cases.append(
                (
                    prod(
                        final_phase,
                        anchor_moves,
                        ind_le(nm("w"), float(t_inner)),
                        ind_eq(nm("u"), float(j)),
                    ),
                    replay,
                )
            )
        nodes.append(NodeSpec(names[spec.name], spec.init, hold(names[spec.name], cases)))
    return nodes


def _full_copy_scratch(
    g_src: RnnGraph, sc: EnumScaffold, prefix: str, main_prefix: str
) -> list[NodeSpec]:
    """Scratch copy: load the whole main state each string loop, then
    consume emitted digits on the per-digit schedule."""
    nm = sc.name
    t_inner = g_src.rnn_time
    src_in = g_src.input_ids[0]
    names = {n.name: prefix + n.name for n in g_src.nodes if n.name != src_in}
    main = {n.name: main_prefix + n.name for n in g_src.nodes if n.name != src_in}
    run_window = ind_le(nm("w"), float(t_inner - 1))
    at_w_tau = ind_eq(nm("w"), float(sc.tau))
    mirror_map = {**names, src_in: nm("ve")}
    nodes = []
    for spec in g_src.nodes:
        if spec.name == src_in:
            continue
        mirror = substitute(spec.expr, mirror_map)
        cases = [
            (sc.at_string_start_next(), node(main[spec.name])),
            (sc.in_initial_phase(), node(main[spec.name])),
            (prod(run_window, sc.in_enum_phase()), mirror),
            (prod(at_w_tau, sc.in_enum_phase()), mirror),
        ]
        nodes.append(NodeSpec(names[spec.name], spec.init, hold(names[spec.name], cases)))
    return nodes


@collector_paused
def build_boosted_rnn_simple(
    q_graph: RnnGraph,
    d_graph: RnnGraph,
    k: int,
    alpha: float,
    i0_star: int,
    base: int,
) -> RnnGraph:
    """Doubling construction: full state copies instead of hidden copies.

    Size ``boosted_simple_size_formula``; outputs must match
    build_boosted_rnn at every scheduled instant.
    """
    for g_src, label in ((q_graph, "model"), (d_graph, "distinguisher")):
        if len(g_src.input_ids) != 1:
            raise PreconditionError(f"{label} circuit must have one input node")
    tau = max(q_graph.rnn_time, d_graph.rnn_time) + 4
    sc = build_scaffold("c.", base, k, tau, i0_star)
    nm = sc.name
    q_main = _full_copy_main(q_graph, sc, "qm.")
    d_main = _full_copy_main(d_graph, sc, "dm.")
    nodes = q_main + _full_copy_scratch(q_graph, sc, "qs.", "qm.")
    nodes += d_main + _full_copy_scratch(d_graph, sc, "ds.", "dm.")

    q_out_main = "qm." + q_graph.output_id
    q_out_scr = "qs." + q_graph.output_id
    d_out_scr = "ds." + d_graph.output_id

    # running product over digits, as in the f1 wrapper
    u1_cases = [
        (
            prod(ind_eq(nm("w0"), float(sc.period - 2)), sc.in_initial_phase()),
            node(q_out_main),
        ),
        (
            prod(sc.at_string_start_next(), ind_ge(nm("vc"), float(i0_star))),
            const(1.0),
        ),
        (
            prod(ind_eq(nm("w"), float(tau - 2)), ind_ge(nm("vc"), float(i0_star + 1))),
            prod(node("u1"), node(q_out_scr)),
        ),
    ]
    nodes.append(NodeSpec("u1", 1.0, hold("u1", u1_cases)))
    nodes.append(NodeSpec("u2", 1.0, exp_binary(-alpha, d_out_scr)))

    g = g_part(sc, "g.")
    combiner = _combiner_nodes(sc, "u1", "u2", *g.outputs)
    # of the copies, u1 and u2, both anchor copies are hidden
    copies = Part(tuple(nodes), tuple(spec.name for spec in q_main + d_main))
    graph = sc.graph(
        copies, g, Part(combiner),
        output_id="out", kind="boosted_simple", alphabet_size=base, alpha=alpha,
    )
    expect = boosted_simple_size_formula(q_graph.size, d_graph.size, k)
    if graph.size != expect:
        raise ValidationError(
            f"simple-construction accounting broken: {graph.size} != {expect}"
        )
    return graph
