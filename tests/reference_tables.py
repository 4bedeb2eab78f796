"""Test references for distinguisher tables and their circuits.

``bit`` reads one cell of a ``table_distinguisher`` the way its tables
were first read, by looking up the one key each keying names for the
cell, so ``test_distinguishers`` can check the tables built entry by
entry against it.

``construct.lm_to_rnn`` and ``construct.distinguisher_to_rnn`` compile
each table over the shortest prefix suffix it depends on.
``reference_lm_to_rnn`` and ``reference_distinguisher_to_rnn`` compile
every nonzero cell of each dense table, each term matching every latch
below its position, the way both were first compiled, so the
differential tests in ``test_construction`` can check the suffix
circuits against them node by node and step by step.
"""

from __future__ import annotations

from ntpboost.construct.lm_compile import MIN_RNN_TIME, _prefix_match, _table_circuit
from ntpboost.dist import token_strings
from ntpboost.distinguishers import set_keys
from ntpboost.rnn.expr import const, ind_eq, ind_ge, prod, relu


def bit(keyed_on: str, entries: dict, default: int, i: int, prefix, window) -> int:
    """d(i, prefix, window) of ``table_distinguisher`` with these arguments.

    "full" looks up (i, prefix + window), "window" (i, window) and
    "prev_window" (i, last prefix token or 0, window); a missing key
    reads ``default``.
    """
    prefix, window = tuple(prefix), tuple(window)
    if keyed_on == "full":
        key = (i, prefix + window)
    elif keyed_on == "window":
        key = (i, window)
    else:
        key = (i, prefix[-1] if prefix else 0, window)
    return int(entries.get(key, default))


def reference_lm_to_rnn(lm, rnn_time: int = MIN_RNN_TIME):
    """Token-per-T model circuit with one term per nonzero conditional."""
    n, size = lm.n, lm.alphabet.size
    terms = []
    for m in range(1, n + 1):
        gate_m = ind_eq("c", float(m))
        prefixes = token_strings(size, m - 1).T.tolist()
        for s, row in zip(prefixes, lm.levels[m - 1].tolist()):
            matches = _prefix_match(s, 1)
            for a, qv in enumerate(row):
                if qv == 0.0:
                    continue
                terms.append(
                    (1.0, prod(const(qv), gate_m, ind_eq("in", float(a)), *matches))
                )
    terms.append((1.0 / size, ind_ge("c", float(n + 1))))
    meta = {"kind": "table_lm", "schedule": "multiples", "n": n, "alphabet_size": size}
    return _table_circuit(n, n + 1, rnn_time, relu(0.0, *terms), meta)


def reference_distinguisher_to_rnn(d, alphabet, rnn_time: int = MIN_RNN_TIME):
    """Trailing-window circuit with one term per set cell of each D_i."""
    n, k, size = d.n, d.k, alphabet.size
    terms = []
    for i, joint in set_keys(d, size):
        gate_m = ind_eq("c", float(i - 1 + k))
        if len(joint) == i - 1 + k:
            *s, a = joint
            matches = _prefix_match(s, 1)
            terms.append((1.0, prod(gate_m, ind_eq("in", float(a)), *matches)))
        else:
            terms.append((1.0, prod(gate_m, *_prefix_match(joint, 1))))
    out = relu(0.0, *terms) if terms else const(0.0)
    meta = {
        "kind": "table_distinguisher",
        "schedule": "window",
        "n": n,
        "k": k,
        "alphabet_size": size,
    }
    return _table_circuit(n, n + k, rnn_time, out, meta)
