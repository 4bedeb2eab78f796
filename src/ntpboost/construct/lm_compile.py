"""Compile dense next-token tables and distinguisher tables into circuits.

The compiled model graph latches tokens into per-position hidden nodes,
tracks its position with a capped counter, and computes the output by an
indicator-product table lookup.  Positions past the table's end emit
the uniform conditional, which is exactly the uniform extension the
boosting formulas marginalize out; the enumerating constructions feed
these graphs short suffix strings past the document end, so the cap is
load-bearing, not cosmetic.

The compiled distinguisher graph evaluates its predicate on the trailing
k-token window of whatever it has consumed: after m >= k tokens the
output is d(m-k+1, x_{:m+1}) with the window clipped at the document
end.  That positional convention is what the synchronized enumerator
expects when it replays anchor prefixes extended with candidate windows.

Both compile by one rule, ``_table_terms``: a term matches only what its
table reads, the newest token on the input and the shortest prefix
suffix the table depends on on the latches.  A model whose conditionals
read the last M tokens costs at most |Sigma|^(M+1) terms per position,
not |Sigma|^i.  That is exact on a valid stream (one token per
``rnn_time`` steps from time 1): when a position's gate fires, every
latch below the counter holds its token, so the one term that matches is
the one cell the full prefix would have read.
"""

from __future__ import annotations

from ..dist import Alphabet, LanguageModel, token_strings
from ..distinguishers import Distinguisher
from ..errors import PreconditionError
from ..rnn.expr import (
    collector_paused,
    const,
    cycle,
    hold,
    ind_eq,
    ind_ge,
    prod,
    relu,
    saturate,
)
from ..rnn.graph import NodeSpec, RnnGraph

MIN_RNN_TIME = 2


def _latch(i: int):
    # p_i stores token+1 while the position counter sits at i
    return hold(f"p{i}", [(ind_eq("c", float(i)), relu(1.0, (1.0, "in")))])


def _prefix_match(s, first: int) -> list:
    """Indicators that latches p_first, p_first+1, ... hold the tokens of s."""
    return [ind_eq(f"p{first + j}", float(tok + 1)) for j, tok in enumerate(s)]


def _suffix_length(table, size: int) -> int:
    """Least L such that the rows of a table that share their last L prefix
    tokens agree.  Rows are prefixes in lexicographic order, so that holds
    when every block of |Sigma|^L consecutive rows equals the first."""
    rows, cols = table.shape
    length, span = 0, 1
    while span < rows and not (
        table.reshape(-1, span * cols) == table[:span].reshape(1, -1)
    ).all():
        length, span = length + 1, span * size
    return length


def _table_terms(tables, size: int, k: int, n: int):
    """(value, gate, factors) of each nonzero cell of each table, in order.

    Table i (rows: prefixes of i - 1 tokens; columns: the kc = min(k,
    n - i + 1) tokens after them) is read when the gate c == i - 1 + k
    fires, over its prefix suffix of length L = ``_suffix_length``: ``in``
    holds the last token unless the window is clipped at the document end
    (it then ends before the gate), and latches p_{i-L} onward the rest.
    """
    for i, table in enumerate(tables, 1):
        gate = ind_eq("c", float(i - 1 + k))
        length = _suffix_length(table, size)
        kc, first = min(k, n - i + 1), i - length
        on_in = kc == k
        # one row per latch string, one column per token on ``in``
        rows = table[: size**length].reshape(-1, size if on_in else 1).tolist()
        for s, row in zip(token_strings(size, length + kc - on_in).T.tolist(), rows):
            if any(row):
                match = _prefix_match(s, first)
                for a, value in enumerate(row):
                    if value:
                        yield value, gate, (
                            (ind_eq("in", float(a)), *match) if on_in else match
                        )


def _table_circuit(n: int, cap: int, rnn_time: int, out, meta: dict) -> RnnGraph:
    """Latch skeleton plus ``out``: input, step counter cycling
    1..``rnn_time``, position counter stepping at token ends up to ``cap``
    and latches p1..pn, all hidden but the input."""
    if rnn_time < MIN_RNN_TIME:
        raise PreconditionError(f"model circuits need rnn_time >= {MIN_RNN_TIME}")
    nodes = [
        NodeSpec("in", 0.0, None),
        NodeSpec("w", 1.0, cycle("w", rnn_time)),
        NodeSpec("c", 1.0, saturate("c", cap, ind_eq("w", float(rnn_time)))),
    ]
    nodes += [NodeSpec(f"p{i}", 0.0, _latch(i)) for i in range(1, n + 1)]
    hidden = tuple(spec.name for spec in nodes[1:])
    nodes.append(NodeSpec("out", 0.0, out))
    return RnnGraph(
        nodes=nodes,
        input_ids=("in",),
        output_id="out",
        hidden_ids=hidden,
        rnn_time=rnn_time,
        meta={**meta, "depth_bound": 16},
    )


@collector_paused
def lm_to_rnn(lm: LanguageModel, rnn_time: int = MIN_RNN_TIME) -> RnnGraph:
    """Token-per-T circuit whose output at time i*T is q(x_i | x_{:i}).

    Size n + 4 with hidden set {step counter, position counter, latches}.
    """
    n, size = lm.n, lm.alphabet.size
    terms = [
        (1.0, prod(const(qv), gate, *factors))
        for qv, gate, factors in _table_terms(lm.levels, size, 1, n)
    ]
    terms.append((1.0 / size, ind_ge("c", float(n + 1))))
    meta = {"kind": "table_lm", "schedule": "multiples", "n": n, "alphabet_size": size}
    return _table_circuit(n, n + 1, rnn_time, relu(0.0, *terms), meta)


@collector_paused
def distinguisher_to_rnn(
    d: Distinguisher, alphabet: Alphabet, rnn_time: int = MIN_RNN_TIME
) -> RnnGraph:
    """Trailing-window circuit: after m >= k tokens, output d(m-k+1, .).

    The position counter runs to n + k so anchors stay resolvable while
    the enumerator feeds candidate windows past the document end; window
    tokens beyond position n are ignored (the clipping convention).

    One indicator product per set cell of each D_i, compiled over the
    prefix suffix it reads (``_table_terms``); exact on a valid stream
    only (see the module docstring).
    """
    n, k, size = d.n, d.k, alphabet.size
    terms = [
        (1.0, prod(gate, *factors))
        for _, gate, factors in _table_terms(d.tables(size), size, k, n)
    ]
    out = relu(0.0, *terms) if terms else const(0.0)
    meta = {
        "kind": "table_distinguisher",
        "schedule": "window",
        "n": n,
        "k": k,
        "alphabet_size": size,
    }
    return _table_circuit(n, n + k, rnn_time, out, meta)
