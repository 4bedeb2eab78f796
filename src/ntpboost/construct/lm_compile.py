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

A model term matches every latch below its position.  A distinguisher
term matches only the tokens its table reads: the window and the
shortest suffix of the prefix that D_i depends on, so a predicate of the
previous token and the window costs at most |Sigma|^(1+k) terms per
position, not |Sigma|^(i-1+k).  That is exact on a valid stream (one token per
``rnn_time`` steps from time 1): when a position's gate fires, every
latch below the counter holds its token, so the one term that matches
the suffix and window is the one cell the full prefix would have read.
"""

from __future__ import annotations

import numpy as np

from ..dist import Alphabet, LanguageModel, token_strings
from ..distinguishers import Distinguisher
from ..errors import PreconditionError
from ..rnn.expr import (
    case_select,
    const,
    ind_eq,
    ind_ge,
    ind_le,
    node,
    prod,
    relu,
)
from ..rnn.graph import NodeSpec, RnnGraph

MIN_RNN_TIME = 2


def _step_counter(period: int):
    return case_select(
        [(ind_le("w", period - 1.0), relu(1.0, (1.0, "w")))], const(1.0)
    )


def _position_counter(period: int, cap: int):
    # increments at token boundaries, sticks at `cap`
    bump = prod(ind_eq("w", float(period)), ind_le("c", cap - 1.0))
    return case_select([(bump, relu(1.0, (1.0, "c")))], node("c"))


def _latch(i: int):
    # p_i stores token+1 while the position counter sits at i
    return case_select(
        [(ind_eq("c", float(i)), relu(1.0, (1.0, "in")))], node(f"p{i}")
    )


def _prefix_match(s, first: int = 1) -> list:
    """Indicators that latches p_first, p_first+1, ... hold the tokens of s."""
    return [ind_eq(f"p{first + j}", float(tok + 1)) for j, tok in enumerate(s)]


def _suffix_length(table, size: int) -> int:
    """Least L such that the rows of D_i that share their last L prefix
    tokens agree.  Rows are prefixes in lexicographic order, so that holds
    when every block of |Sigma|^L consecutive rows equals the first."""
    rows, cols = table.shape
    length, span = 0, 1
    while span < rows and not (
        table.reshape(-1, span * cols) == table[:span].reshape(1, -1)
    ).all():
        length, span = length + 1, span * size
    return length


def _table_circuit(n: int, cap: int, rnn_time: int, out, meta: dict) -> RnnGraph:
    """Latch skeleton plus ``out``: input, step counter, position counter
    capped at ``cap`` and latches p1..pn, all hidden but the input."""
    if rnn_time < MIN_RNN_TIME:
        raise PreconditionError(f"model circuits need rnn_time >= {MIN_RNN_TIME}")
    nodes = [
        NodeSpec("in", 0.0, None),
        NodeSpec("w", 1.0, _step_counter(rnn_time)),
        NodeSpec("c", 1.0, _position_counter(rnn_time, cap)),
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


def lm_to_rnn(lm: LanguageModel, rnn_time: int = MIN_RNN_TIME) -> RnnGraph:
    """Token-per-T circuit whose output at time i*T is q(x_i | x_{:i}).

    Size n + 4 with hidden set {step counter, position counter, latches}.
    """
    n, size = lm.n, lm.alphabet.size
    terms = []
    for m in range(1, n + 1):
        gate_m = ind_eq("c", float(m))
        prefixes = token_strings(size, m - 1).T.tolist()
        for s, row in zip(prefixes, lm.levels[m - 1].tolist()):
            matches = _prefix_match(s)
            for a, qv in enumerate(row):
                if qv == 0.0:
                    continue
                terms.append(
                    (1.0, prod(const(qv), gate_m, ind_eq("in", float(a)), *matches))
                )
    terms.append((1.0 / size, ind_ge("c", float(n + 1))))
    meta = {"kind": "table_lm", "schedule": "multiples", "n": n, "alphabet_size": size}
    return _table_circuit(n, n + 1, rnn_time, relu(0.0, *terms), meta)


def distinguisher_to_rnn(
    d: Distinguisher, alphabet: Alphabet, rnn_time: int = MIN_RNN_TIME
) -> RnnGraph:
    """Trailing-window circuit: after m >= k tokens, output d(m-k+1, .).

    The position counter runs to n + k so anchors stay resolvable while
    the enumerator feeds candidate windows past the document end; window
    tokens beyond position n are ignored (the clipping convention).

    Position i's table D_i is compiled over the shortest prefix suffix it
    depends on, of length L (``_suffix_length``): one indicator product
    per set cell of the |Sigma|^L x |Sigma|^kc sub-table, in table order,
    matching the gate, then ``in`` for the last window token when the
    window is not clipped, then latches p_{i-L} onward for the rest, so
    a table that reads the whole prefix gets one term per set cell of
    D_i.  The output is exact on a valid stream only (see the module
    docstring): a term does not look at the latches below p_{i-L}.
    """
    n, k, size = d.n, d.k, alphabet.size
    # d(i, .) is read once its window is consumed, at counter value
    # m = i - 1 + k; a window clipped at the document end ends before m,
    # so those terms match on the latches alone
    terms = []
    for i, table in enumerate(d.tables(size), 1):
        gate_m = ind_eq("c", float(i - 1 + k))
        length = _suffix_length(table, size)
        kc, first = min(k, n - i + 1), i - length
        cells = np.flatnonzero(table[: size**length])
        for joint in token_strings(size, length + kc)[:, cells].T.tolist():
            if kc == k:
                *s, a = joint
                factors = (ind_eq("in", float(a)), *_prefix_match(s, first))
            else:
                factors = _prefix_match(joint, first)
            terms.append((1.0, prod(gate_m, *factors)))
    out = relu(0.0, *terms) if terms else const(0.0)
    meta = {
        "kind": "table_distinguisher",
        "schedule": "window",
        "n": n,
        "k": k,
        "alphabet_size": size,
    }
    return _table_circuit(n, n + k, rnn_time, out, meta)
