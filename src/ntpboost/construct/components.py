"""Component circuits feeding the boosted ratio: f1, f2, g1/g2.

f1 wraps the synchronized enumerator around the model circuit and chains
a running product across the k digit outputs, yielding the candidate
window's conditional probability at the end of each string loop.  f2
does the same around the distinguisher circuit and exponentiates.  The
g module compares the enumerated window against the realized tokens
stored since the anchor, producing the two prefix-match indicators.
"""

from __future__ import annotations

from ..errors import PreconditionError, ValidationError
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
from .enumerator import EnumScaffold, build_scaffold, build_sync_enumerator


def _enumerated(
    src: RnnGraph, inner: RnnGraph, sc: EnumScaffold, out: NodeSpec, **meta
) -> RnnGraph:
    """The enumerator ``inner`` around ``src`` with ``out`` appended as
    output; the size is checked against |src| + |H_src| + 2k + 7."""
    graph = RnnGraph(
        nodes=[*inner.nodes, out],
        input_ids=inner.input_ids,
        output_id=out.name,
        hidden_ids=inner.hidden_ids,
        rnn_time=inner.rnn_time,
        meta={**inner.meta, **meta},
    )
    expect = src.size + src.hidden_size + 2 * sc.k + 7
    if graph.size != expect:
        raise ValidationError(
            f"{meta['kind']} accounting broken: {graph.size} != {expect}"
        )
    return graph


def build_f1(
    q_graph: RnnGraph,
    k: int,
    i0_star: int,
    tau: int,
    base: int,
    prefix: str = "f1.",
) -> tuple[RnnGraph, EnumScaffold]:
    """Window-probability circuit: q(z | anchor prefix) per string loop.

    Output instants: i*T_U - 1 holds q(x_i | x_{:i}) for i <= offset;
    (i-1)*T_U + j*k*tau - 1 holds q(z^(j) | anchor prefix) afterwards.
    Size |Q| + |H_Q| + 2k + 7; hidden unchanged from the enumerator.
    """
    if tau < q_graph.rnn_time + 4:
        raise PreconditionError(
            f"need tau >= T_Q + 4 = {q_graph.rnn_time + 4}, got {tau}"
        )
    inner, sc = build_sync_enumerator(q_graph, k, i0_star, tau, base, prefix)
    nm = sc.name
    vq = inner.output_id
    initial = sc.in_initial_phase()
    acc = nm("out")
    cases = [
        (prod(ind_eq(nm("w0"), float(sc.period - 2)), initial), node(vq)),
        (
            prod(sc.at_string_start_next(), ind_ge(nm("vc"), float(i0_star))),
            const(1.0),
        ),
        (
            prod(ind_eq(nm("w"), float(tau - 2)), ind_ge(nm("vc"), float(i0_star + 1))),
            prod(node(acc), node(vq)),
        ),
    ]
    out = NodeSpec(acc, 1.0, hold(acc, cases))
    return _enumerated(q_graph, inner, sc, out, kind="f1_window_probability"), sc


def build_f2(
    d_graph: RnnGraph,
    k: int,
    i0_star: int,
    alpha: float,
    tau: int,
    base: int,
    prefix: str = "f2.",
) -> tuple[RnnGraph, EnumScaffold]:
    """Reweighting circuit: exp(-alpha * d(anchor+1, prefix . z)).

    Output instants: (i-1)*T_U + j*k*tau - 1.  Size |D| + |H_D| + 2k + 7.
    """
    inner, sc = build_sync_enumerator(d_graph, k, i0_star, tau, base, prefix)
    out = NodeSpec(sc.name("out"), 1.0, exp_binary(-alpha, inner.output_id))
    graph = _enumerated(
        d_graph, inner, sc, out, kind="f2_exp_distinguisher", alpha=alpha
    )
    return graph, sc


def build_g(
    k: int,
    i0_star: int,
    tau: int,
    base: int,
    prefix: str = "g.",
) -> tuple[RnnGraph, EnumScaffold]:
    """Indicator circuit: window-vs-realized prefix matches g1 and g2.

    Nodes v1 and v2 hold, from the fourth step of each string loop,
    [z^(j)_{:r0+1} = x_{anchor+1:i+1}] and the same with r0 - 1.
    Size 3k + 8; hidden 2k + 5.
    """
    if tau < 4:
        raise PreconditionError(f"need tau >= 4, got {tau}")
    nodes, sc = build_scaffold(
        prefix, base, k, tau, i0_star, prefix + "in", include_vc=False
    )
    nm = sc.name
    hidden = tuple(spec.name for spec in nodes[1:])

    # per-slot agreement between stored tokens and the window counter;
    # string character l is counter digit k+1-l
    for l in range(1, k + 1):
        agree = ind_eq(nm(f"y{l}"), nm(f"e{k + 1 - l}"))
        nodes.append(NodeSpec(nm(f"m{l}"), 0.0, agree))

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
                (1.0, prod(node(nm(f"m{l}")), ind_ge(nm("u0"), float(l + lag)))),
                (1.0, ind_le(nm("u0"), float(l + lag - 1))),
            )
            for l in range(1, k + 1)
        ]
        cases = [(update_gate, prod(*factors))]
        nodes.append(NodeSpec(nm(v), 0.0, hold(nm(v), cases)))

    graph = RnnGraph(
        nodes=nodes,
        input_ids=(nodes[0].name,),
        output_id=nm("v1"),
        hidden_ids=hidden,
        rnn_time=sc.period,
        meta=sc.meta("g_indicators", pair=(nm("v1"), nm("v2"))),
    )
    if graph.size != 3 * k + 8:
        raise ValidationError(f"g accounting broken: {graph.size} != {3 * k + 8}")
    if graph.hidden_size != 2 * k + 5:
        raise ValidationError(
            f"g hidden accounting broken: {graph.hidden_size} != {2 * k + 5}"
        )
    return graph, sc
