"""Component circuits feeding the boosted ratio: f1, f2, g1/g2.

f1 wraps the synchronized enumerator around the model circuit and chains
a running product across the k digit outputs, yielding the candidate
window's conditional probability at the end of each string loop.  f2
does the same around the distinguisher circuit and exponentiates.  The
g module compares the enumerated window against the realized tokens
stored since the anchor, producing the two prefix-match indicators.
Each is a ``Part`` on the scaffold it is given; ``build_f1``,
``build_f2`` and ``build_g`` give one a scaffold of its own.
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..rnn.expr import (
    const,
    exp_binary,
    hold,
    ind_eq,
    ind_ge,
    ind_le,
    node,
    prod,
    relu,
)
from ..rnn.graph import NodeSpec, RnnGraph
from .enumerator import EnumScaffold, Part, build_scaffold, enumerator_part


def f1_part(q_graph: RnnGraph, sc: EnumScaffold, prefix: str) -> Part:
    """Window-probability part: q(z | anchor prefix) per string loop.

    Output instants: i*T_U - 1 holds q(x_i | x_{:i}) for i <= offset;
    (i-1)*T_U + j*k*tau - 1 holds q(z^(j) | anchor prefix) afterwards.
    |Q| + |H_Q| nodes: the enumerator's and the output ``out``.
    """
    if sc.tau < q_graph.rnn_time + 4:
        raise PreconditionError(
            f"need tau >= T_Q + 4 = {q_graph.rnn_time + 4}, got {sc.tau}"
        )
    u = enumerator_part(q_graph, sc, prefix)
    nm = sc.name
    vq = u.outputs[0]
    acc = prefix + "out"
    cases = [
        (prod(ind_eq(nm("w0"), float(sc.period - 2)), sc.in_initial_phase()), node(vq)),
        (
            prod(sc.at_string_start_next(), ind_ge(nm("vc"), float(sc.i0_star))),
            const(1.0),
        ),
        (
            prod(
                ind_eq(nm("w"), float(sc.tau - 2)),
                ind_ge(nm("vc"), float(sc.i0_star + 1)),
            ),
            prod(node(acc), node(vq)),
        ),
    ]
    out = NodeSpec(acc, 1.0, hold(acc, cases))
    return Part((*u.nodes, out), u.hidden, (acc,))


def f2_part(d_graph: RnnGraph, sc: EnumScaffold, alpha: float, prefix: str) -> Part:
    """Reweighting part: exp(-alpha * d(anchor+1, prefix . z)).

    Output instants: (i-1)*T_U + j*k*tau - 1.  |D| + |H_D| nodes.
    """
    u = enumerator_part(d_graph, sc, prefix)
    out = NodeSpec(prefix + "out", 1.0, exp_binary(-alpha, u.outputs[0]))
    return Part((*u.nodes, out), u.hidden, (out.name,))


def g_part(sc: EnumScaffold, prefix: str) -> Part:
    """Indicator part: window-vs-realized prefix matches g1 and g2.

    Outputs v1 and v2 hold, from the fourth step of each string loop,
    [z^(j)_{:r0+1} = x_{anchor+1:i+1}] and the same with r0 - 1.
    k + 2 nodes, none hidden.
    """
    if sc.tau < 4:
        raise PreconditionError(f"need tau >= 4, got {sc.tau}")
    nm = sc.name
    k = sc.k
    nodes = []

    # per-slot agreement between stored tokens and the window counter;
    # string character l is counter digit k+1-l
    for l in range(1, k + 1):
        agree = ind_eq(nm(f"y{l}"), nm(f"e{k + 1 - l}"))
        nodes.append(NodeSpec(prefix + f"m{l}", 0.0, agree))

    update_gate = prod(
        ind_eq(nm("w"), 3.0),
        ind_eq(nm("u"), 1.0),
        sc.in_enum_phase(),
    )
    # v1 holds prod_l [m_l if l <= u0 else 1], v2 the same with u0 - 1
    for v, lag in (("v1", 0), ("v2", 1)):
        factors = [
            relu(
                0.0,
                (1.0, prod(node(prefix + f"m{l}"), ind_ge(nm("u0"), float(l + lag)))),
                (1.0, ind_le(nm("u0"), float(l + lag - 1))),
            )
            for l in range(1, k + 1)
        ]
        cases = [(update_gate, prod(*factors))]
        nodes.append(NodeSpec(prefix + v, 0.0, hold(prefix + v, cases)))

    return Part(tuple(nodes), (), (prefix + "v1", prefix + "v2"))


def build_f1(
    q_graph: RnnGraph,
    k: int,
    i0_star: int,
    tau: int,
    base: int,
    prefix: str = "f1.",
) -> tuple[RnnGraph, EnumScaffold]:
    """``f1_part`` on a scaffold of its own, both under ``prefix``."""
    sc = build_scaffold(prefix, base, k, tau, i0_star)
    f1 = f1_part(q_graph, sc, prefix)
    return sc.graph(f1, output_id=f1.outputs[0], kind="f1_window_probability"), sc


def build_f2(
    d_graph: RnnGraph,
    k: int,
    i0_star: int,
    alpha: float,
    tau: int,
    base: int,
    prefix: str = "f2.",
) -> tuple[RnnGraph, EnumScaffold]:
    """``f2_part`` on a scaffold of its own, both under ``prefix``."""
    sc = build_scaffold(prefix, base, k, tau, i0_star)
    f2 = f2_part(d_graph, sc, alpha, prefix)
    graph = sc.graph(
        f2, output_id=f2.outputs[0], kind="f2_exp_distinguisher", alpha=alpha
    )
    return graph, sc


def build_g(
    k: int,
    i0_star: int,
    tau: int,
    base: int,
    prefix: str = "g.",
) -> tuple[RnnGraph, EnumScaffold]:
    """``g_part`` on a scaffold of its own, both under ``prefix``; the
    meta's ``pair`` names v1 and v2."""
    sc = build_scaffold(prefix, base, k, tau, i0_star)
    g = g_part(sc, prefix)
    graph = sc.graph(g, output_id=g.outputs[0], kind="g_indicators", pair=g.outputs)
    return graph, sc
