"""Brute-force reference implementations used as independent oracles.

Everything here enumerates documents directly and stays deliberately
naive; nothing imports the production code paths it is used to check
(only the container types for convenience).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def docs(size: int, n: int):
    return product(range(size), repeat=n)


def doc_index(doc, size: int) -> int:
    idx = 0
    for tok in doc:
        idx = idx * size + tok
    return idx


def product_table(levels, size: int, n: int) -> np.ndarray:
    """Per-document product of conditionals, one document at a time."""
    out = np.empty(size**n)
    for doc in docs(size, n):
        val = 1.0
        for i in range(n):
            prefix_idx = doc_index(doc[:i], size)
            val *= levels[i][prefix_idx][doc[i]]
        out[doc_index(doc, size)] = val
    return out


def marginal_by_suffix_enumeration(probs, size: int, n: int, s) -> float:
    total = 0.0
    for tail in product(range(size), repeat=n - len(s)):
        total += probs[doc_index(tuple(s) + tail, size)]
    return float(total)


def kl_direct(p, q, size: int, n: int) -> float:
    total = 0.0
    for doc in docs(size, n):
        pi = p[doc_index(doc, size)]
        if pi > 0:
            total += pi * math.log(pi / q[doc_index(doc, size)])
    return total


def entropy_direct(p, size: int, n: int) -> float:
    total = 0.0
    for doc in docs(size, n):
        pi = p[doc_index(doc, size)]
        if pi > 0:
            total -= pi * math.log(pi)
    return total


def loss_by_document_enumeration(p_probs, q_levels, size: int, n: int) -> float:
    """-(1/n) sum_x p(x) log qbar(x) with qbar the per-document product."""
    qbar = product_table(q_levels, size, n)
    total = 0.0
    for doc in docs(size, n):
        pi = p_probs[doc_index(doc, size)]
        if pi > 0:
            total -= pi * math.log(qbar[doc_index(doc, size)])
    return total / n


def conditional_by_sums(probs, size: int, n: int, s, y) -> float:
    num = marginal_by_suffix_enumeration(probs, size, n, tuple(s) + (y,))
    den = marginal_by_suffix_enumeration(probs, size, n, s)
    return num / den


def table_bit(tables, i: int, x, size: int, k: int) -> int:
    """D_i at the string x: row x_{:i-1}, column the window x_{i:i+k} as clipped."""
    row = doc_index(x[: i - 1], size)
    return int(tables[i - 1][row, doc_index(x[i - 1 : i - 1 + k], size)])


def advantage_double_enumeration(
    tables, p_probs, q_probs, size: int, n: int, k: int
) -> float:
    """Advantage of the bit tables D_1..D_n by enumerating (y, x) document pairs.

    Zero-probability prefixes under q use the uniform completion for the
    conditional expectation (they only matter where p gives them mass).
    """

    def bit(i, x):
        return table_bit(tables, i, x, size, k)

    total = 0.0
    for y in docs(size, n):
        py = p_probs[doc_index(y, size)]
        if py == 0:
            continue
        inner = 0.0
        for i in range(1, n + 1):
            prefix = y[: i - 1]
            pref_mass = marginal_by_suffix_enumeration(q_probs, size, n, prefix)
            cond = 0.0
            if pref_mass > 0:
                for x in docs(size, n):
                    if x[: i - 1] != prefix:
                        continue
                    qx = q_probs[doc_index(x, size)]
                    if qx > 0:
                        cond += qx / pref_mass * bit(i, x)
            else:
                tail = n - (i - 1)
                for z in product(range(size), repeat=tail):
                    x = prefix + z
                    cond += bit(i, x) / size**tail
            inner += cond - bit(i, y)
        total += py * inner / n
    return total


def one_prefix_key_gaps(p_probs, q_probs, size: int, n: int, k: int) -> np.ndarray:
    """Gap sum of every one-prefix table key, by key number.

    Key prev * size^k + index(w) is (prev, w), where prev is the last
    prefix token (0 at position 1) and w the window zero-padded to
    length k.  Each gap p(s) * (q(w | s) - p(w | s)) is found by summing
    documents, with the uniform completion where q gives s no mass, and
    added to its key.
    """
    per_key = np.zeros(size ** (k + 1))
    for i in range(1, n + 1):
        kc = min(k, n - i + 1)
        p_joint, q_joint = {}, {}
        for doc in docs(size, n):
            s = doc[: i - 1 + kc]
            p_joint[s] = p_joint.get(s, 0.0) + p_probs[doc_index(doc, size)]
            q_joint[s] = q_joint.get(s, 0.0) + q_probs[doc_index(doc, size)]
        for s in product(range(size), repeat=i - 1):
            windows = [s + w for w in product(range(size), repeat=kc)]
            p_mass = sum(p_joint[x] for x in windows)
            q_mass = sum(q_joint[x] for x in windows)
            if p_mass == 0:
                continue
            prev = s[-1] if s else 0
            for x in windows:
                q_cond = q_joint[x] / q_mass if q_mass > 0 else 1.0 / size**kc
                gap = p_mass * (q_cond - p_joint[x] / p_mass)
                padded = x[i - 1 :] + (0,) * (k - kc)
                per_key[prev * size**k + doc_index(padded, size)] += gap
    return per_key


def one_prefix_advantages(p_probs, q_probs, size: int, n: int, k: int) -> np.ndarray:
    """Signed advantage of every one-prefix table member, by member number.

    Member m holds key j when bit j of m is set; its advantage is the sum
    of ``one_prefix_key_gaps`` over its keys, over n.
    """
    per_key = one_prefix_key_gaps(p_probs, q_probs, size, n, k)
    members = np.arange(2 ** len(per_key))
    held = (members[:, None] >> np.arange(len(per_key))) & 1
    return held @ per_key / n


def boosted_table_blockwise(q_probs, tables, alpha, i0_star, size: int, n: int, k: int):
    """Blockwise-reweighted table computed document by document.

    For each document, multiply q(x) by exp(-alpha D_{i+1}(x)) / Z(x_{:i+1})
    over block anchors i = i0*, i0*+k, ... < n, computing each Z by direct
    conditional enumeration under q.
    """
    out = np.zeros_like(np.asarray(q_probs, dtype=float))
    anchors = list(range(i0_star, n, k))
    for doc in docs(size, n):
        val = q_probs[doc_index(doc, size)]
        if val == 0:
            out[doc_index(doc, size)] = 0.0
            continue
        for anchor in anchors:
            prefix = doc[:anchor]
            kc = min(k, n - anchor)
            z = 0.0
            pref_mass = marginal_by_suffix_enumeration(q_probs, size, n, prefix)
            for w in product(range(size), repeat=kc):
                cond = (
                    marginal_by_suffix_enumeration(q_probs, size, n, prefix + w)
                    / pref_mass
                )
                bit = table_bit(tables, anchor + 1, prefix + w, size, k)
                z += cond * math.exp(-alpha * bit)
            num = math.exp(-alpha * table_bit(tables, anchor + 1, doc, size, k))
            val *= num / z
        out[doc_index(doc, size)] = val
    return out
