"""Next-k-token distinguishers and the advantage functional.

A distinguisher d(i, x) may read the prefix x_{:i} and the window
x_{i:i+k} (clipped at the document end).  At a fixed alphabet size it
is exactly its bit tables: ``Distinguisher.tables`` holds one array D_i
per position, with a row per prefix and a column per clipped window.
The advantage measures, averaged over positions and true-data
prefixes, how differently d behaves on q's window completions versus
p's; it is a dot product of the tables with the gaps
G_i = p(prefix) * (q(window | prefix) - p(window | prefix)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dist import TextDistribution, enumeration_cap, kl, lex_index, token_strings
from .errors import PreconditionError, SizingError, ValidationError

Tables = tuple[np.ndarray, ...]
ORACLE_CAP = 1 << 20  # most members ``max_advantage_oracle`` enumerates


def table_shapes(k: int, n: int, size: int) -> list[tuple[int, int]]:
    """Shape (|Sigma|^(i-1), |Sigma|^kc(i)) of D_i for i = 1..n."""
    return [(size ** (i - 1), size ** min(k, n - i + 1)) for i in range(1, n + 1)]


def table_cells(k: int, n: int, size: int) -> int:
    """Entries of D_1..D_n together, checked against the enumeration cap."""
    total, cap = sum(r * c for r, c in table_shapes(k, n, size)), enumeration_cap()
    if total > cap:
        raise SizingError(
            f"distinguisher tables of {total} entries exceed the exact "
            f"enumeration cap {cap}"
        )
    return total


@dataclass(frozen=True, eq=False)
class Distinguisher:
    """A next-k-token distinguisher on documents of length n, as its tables.

    ``tabulate(size)`` builds D_1..D_n at alphabet size ``size``;
    ``tables`` checks and caches them.
    """

    k: int
    n: int
    tabulate: Callable[[int], Sequence[np.ndarray]] = field(repr=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise PreconditionError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    def tables(self, size: int) -> Tables:
        """Read-only bit tables D_1..D_n at alphabet size ``size``.

        D_i[prefix, window] = d(i, x) where x_{:i-1+kc} is prefix.window,
        so the flat index of D_i is the lexicographic index of that
        string.  Built once per size, within the enumeration cap.
        """
        cached = self._tables.get(size)
        if cached is not None:
            return cached
        table_cells(self.k, self.n, size)
        shapes = table_shapes(self.k, self.n, size)
        raw = list(self.tabulate(size))
        if len(raw) != self.n:
            raise ValidationError(f"need {self.n} tables, got {len(raw)}")
        out = []
        for i, (shape, table) in enumerate(zip(shapes, raw), 1):
            arr = np.asarray(table)
            if arr.shape != shape:
                raise ValidationError(f"D_{i} has shape {arr.shape}, expected {shape}")
            bad = (arr != 0) & (arr != 1)
            if bad.any():
                raise ValidationError(
                    f"distinguisher output {arr[bad][0].item()!r} is not a bit"
                )
            arr = arr.astype(np.uint8)
            arr.flags.writeable = False
            out.append(arr)
        cached = self._tables[size] = tuple(out)
        return cached


def flat(tables: Sequence[np.ndarray]) -> np.ndarray:
    """All positions' tables as one vector, position 1 first."""
    return np.concatenate([t.ravel() for t in tables])


def from_tables(
    k: int, n: int, size: int, tables: Sequence[np.ndarray]
) -> Distinguisher:
    """The distinguisher whose tables at alphabet size ``size`` are given."""

    def tabulate(s: int):
        if s != size:
            raise PreconditionError(
                f"distinguisher is tabulated for alphabet size {size}, not {s}"
            )
        return tables

    return Distinguisher(k, n, tabulate)


def set_keys(d: Distinguisher, size: int):
    """(i, x_{:i-1+kc}) for every set bit of d, in table order."""
    for i, table in enumerate(d.tables(size), 1):
        length = i - 1 + min(d.k, d.n - i + 1)
        for key in token_strings(size, length)[:, np.flatnonzero(table)].T.tolist():
            yield i, tuple(key)


def complement(d: Distinguisher) -> Distinguisher:
    return Distinguisher(d.k, d.n, lambda size: [1 - t for t in d.tables(size)])


def constant_distinguisher(k: int, n: int, bit: int = 0) -> Distinguisher:
    return Distinguisher(
        k, n, lambda size: [np.full(shape, bit) for shape in table_shapes(k, n, size)]
    )


def table_key_fault(key, k: int, n: int, size: int, keyed_on: str = "full") -> str | None:
    """Why ``key`` names no cell of ``table_distinguisher``'s tables, or None.

    A "full" key is (i, x_{:i-1+kc}), a "window" key (i, window) and a
    "prev_window" key (i, last prefix token or 0 at i = 1, window), with
    1 <= i <= n and every token in [0, size).
    """
    parts = 3 if keyed_on == "prev_window" else 2
    if len(key) != parts:
        return f"a {keyed_on} key has {parts} parts, not {len(key)}"
    i, *prev, tokens = key
    if not 1 <= i <= n:
        return f"position {i} outside [1, {n}]"
    if keyed_on == "full":
        want, spelled = min(i - 1 + k, n), "|x_(:i+k)|"
    else:
        want, spelled = min(k, n - i + 1), "|x_(i:i+k)|"
    if len(tokens) != want:
        return f"key length {len(tokens)} != {spelled} = {want}"
    if i == 1 and any(prev):
        return f"previous token {prev[0]} at position 1, which has none"
    if not all(0 <= t < size for t in (*prev, *tokens)):
        return "token outside alphabet"
    return None


def table_distinguisher(
    k: int,
    n: int,
    entries: dict,
    default: int = 0,
    keyed_on: str = "full",
) -> Distinguisher:
    """Distinguisher backed by an explicit table; unnamed cells hold ``default``.

    keyed_on selects the key and the cells of D_i it sets: "full" keys
    (i, x_{:i-1+kc}) as in the file format set one cell; "window" keys
    (i, window) set a column; "prev_window" keys (i, last prefix token or
    0 at i = 1, window) set a column on the rows whose prefix ends in
    that token.  Building the tables refuses a key that names no cell.
    """
    if keyed_on not in ("full", "window", "prev_window"):
        raise ValidationError(f"unknown table keying {keyed_on!r}")

    def tabulate(size: int) -> list[np.ndarray]:
        tables = [np.full(shape, default) for shape in table_shapes(k, n, size)]
        for key, bit in entries.items():
            fault = table_key_fault(key, k, n, size, keyed_on)
            if fault is not None:
                raise ValidationError(f"table key {key!r} names no cell: {fault}")
            i, *prev, tokens = key
            lead = i - 1 if keyed_on == "full" else 0
            if keyed_on == "full":
                rows = lex_index(tokens[:lead], size)
            else:
                rows = slice(prev[0], None, size) if prev else slice(None)
            tables[i - 1][rows, lex_index(tokens[lead:], size)] = bit
        return tables

    return Distinguisher(k, n, tabulate)


# ---------------------------------------------------------------------------
# advantage


def _block_conditionals(
    text: TextDistribution, rows: int, cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix marginals and window conditionals, uniform at zero marginals."""
    blocks = text.probs.reshape(rows, cols, -1).sum(axis=2)
    marg = blocks.sum(axis=1)
    cond = np.full(blocks.shape, 1.0 / cols)
    np.divide(blocks, marg[:, None], out=cond, where=marg[:, None] > 0)
    return marg, cond


def position_gaps(p: TextDistribution, q: TextDistribution, k: int) -> Tables:
    """G_i = p(x_{:i-1}) * (q(w | x_{:i-1}) - p(w | x_{:i-1})), shaped like D_i.

    Conditionals under q use the uniform-completion convention at
    zero-marginal prefixes; they enter only where p gives the prefix
    positive mass.
    """
    if p.alphabet.size != q.alphabet.size or p.n != q.n:
        raise ValidationError("p and q must share alphabet and n")
    if k > p.n:
        raise PreconditionError(f"window k={k} exceeds document length {p.n}")
    gaps = []
    for rows, cols in table_shapes(k, p.n, p.alphabet.size):
        pmarg, pcond = _block_conditionals(p, rows, cols)
        _, qcond = _block_conditionals(q, rows, cols)
        gaps.append(pmarg[:, None] * (qcond - pcond))
    return tuple(gaps)


def _tables_for(d: Distinguisher, p: TextDistribution) -> Tables:
    if d.n != p.n:
        raise PreconditionError(f"distinguisher has n={d.n}, distribution n={p.n}")
    return d.tables(p.alphabet.size)


def advantage(
    d: Distinguisher, p: TextDistribution, q: TextDistribution
) -> float:
    """Exact advantage a(d, p, q); signed (no WLOG complementing here)."""
    gaps = position_gaps(p, q, d.k)
    return float(flat(gaps) @ flat(_tables_for(d, p))) / p.n


def block_weights(n: int, k: int) -> list[int]:
    """w_j = |R(j, n, k)| = 1 + floor((n-1-j)/k) for offsets j in [0, k)."""
    return [1 + (n - 1 - j) // k for j in range(k)]


def anchors(i0_star: int, n: int, k: int) -> list[int]:
    """Block start positions R(i0*, n, k) = {i0*, i0*+k, ...} in [0, n-1]."""
    return list(range(i0_star, n, k))


def anchor_of(i: int, i0_star: int, k: int) -> int:
    """Greatest block start strictly below position i (paper's i0(i))."""
    if i <= i0_star:
        raise PreconditionError(f"position {i} is inside the untouched prefix")
    return i0_star + ((i - 1 - i0_star) // k) * k


@dataclass(frozen=True)
class AdvantageReport:
    """Offset decomposition: advantage = sum_j (w_j/n) a_j."""

    advantage: float
    offsets: tuple[tuple[int, int, float], ...]  # (j, w_j, a_j)
    best_offset: int

    def __post_init__(self):
        n_total = sum(w for _, w, _ in self.offsets)
        recon = sum(w * a for _, w, a in self.offsets) / n_total
        if abs(recon - self.advantage) > 1e-10:
            raise ValidationError(
                f"offset reconstruction off by {recon - self.advantage:.3e}"
            )


def offset_decomposition(
    d: Distinguisher, p: TextDistribution, q: TextDistribution
) -> AdvantageReport:
    n, k = p.n, d.k
    gaps = position_gaps(p, q, k)
    tables = _tables_for(d, p)
    terms = [float(np.vdot(g, t)) for g, t in zip(gaps, tables)]
    weights = block_weights(n, k)
    a = [sum(terms[i] for i in anchors(j, n, k)) / weights[j] for j in range(k)]
    best = max(range(k), key=lambda j: (a[j], -j))
    return AdvantageReport(
        advantage=float(flat(gaps) @ flat(tables)) / n,
        offsets=tuple((j, weights[j], a[j]) for j in range(k)),
        best_offset=best,
    )


def pinsker_bound(p: TextDistribution, q: TextDistribution, k: int) -> float:
    """sqrt(k/(2n) * KL(p||q)): no next-k-token distinguisher beats this."""
    return math.sqrt(k / (2.0 * p.n) * kl(p, q))


def max_advantage_oracle(
    p: TextDistribution,
    q: TextDistribution,
    family,
) -> tuple[Distinguisher, float]:
    """Brute-force member of ``family`` with the largest |advantage|.

    ``family`` is an iterable of at most ``ORACLE_CAP`` distinguishers;
    ties break to the earliest member.
    """
    best_d, best_val = None, -1.0
    count = 0
    for d in family:
        count += 1
        if count > ORACLE_CAP:
            raise SizingError(f"family enumeration exceeded cap {ORACLE_CAP}")
        val = advantage(d, p, q)
        if abs(val) > best_val + 1e-18:
            best_d, best_val = d, abs(val)
    if best_d is None:
        raise PreconditionError("empty distinguisher family")
    return best_d, best_val
