"""Enumerable distinguisher families used by oracles and the self-boost loop.

A family is every subset of a key set under a fixed map from table cells
to keys (``Family.cell_keys``); its description length is keys * ln 2.
A member's ``Distinguisher`` is built only when it is asked for, and the
best member is found in closed form from per-key gap sums.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dist import Alphabet
from .distinguishers import Distinguisher, from_tables, table_cells, table_shapes
from .errors import PreconditionError, ValidationError


@dataclass(frozen=True, eq=False)
class Family:
    """The 2^keys distinguishers at one alphabet size that share a key map.

    ``cell_keys`` is read-only and holds one entry per table cell, in
    ``distinguishers.flat`` order: position 1 first, each D_i row-major
    (prefix, then clipped window), so cell offsets follow
    ``table_shapes(k, n, size)``.  Entry c is the key of cell c, or -1 for
    a cell that is 0 in every member.  Member m holds key j when bit j of
    m is set, and its cells are 1 exactly where their key is held.
    ``family[m]`` builds member m's ``Distinguisher``; iteration runs over
    ``range(2**keys)``.
    """

    k: int
    n: int
    size: int
    keys: int
    cell_keys: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise PreconditionError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        cells = table_cells(self.k, self.n, self.size)
        arr = np.asarray(self.cell_keys)
        if arr.shape != (cells,) or arr.dtype.kind not in "iu":
            raise ValidationError(
                f"cell keys have shape {arr.shape} and dtype {arr.dtype}, "
                f"expected ({cells},) integers"
            )
        bad = (arr < -1) | (arr >= self.keys)
        if bad.any():
            raise ValidationError(
                f"cell key {arr[bad][0].item()} outside [-1, {self.keys})"
            )
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "cell_keys", arr)

    def __len__(self) -> int:
        return 2**self.keys

    def __getitem__(self, m) -> Distinguisher:
        m = operator.index(m)
        if not 0 <= m < 2**self.keys:
            raise IndexError(f"member {m} outside [0, 2^{self.keys})")
        held = np.array([m >> j & 1 for j in range(self.keys)] + [0], dtype=np.uint8)
        row = held[self.cell_keys]  # key -1 reads the trailing 0
        shapes = table_shapes(self.k, self.n, self.size)
        ends = np.cumsum([r * c for r, c in shapes])[:-1]
        tables = [t.reshape(s) for t, s in zip(np.split(row, ends), shapes)]
        return from_tables(self.k, self.n, self.size, tables)

    def __iter__(self):
        return (self[m] for m in range(2**self.keys))

    def best(self, values: np.ndarray) -> tuple[int, float]:
        """The member whose cells sum ``values`` to the largest |total|.

        With W = the per-key sums of ``values``, the largest total is the
        sum of the positive W and the smallest the sum of the negative W.
        Returns (member, total) for the member holding exactly the keys
        with W > 0, or the one holding exactly the keys with W < 0,
        whichever total has the larger magnitude; an exact tie goes to
        W > 0.  Keys with W = 0 are never held.
        """
        # bin 0 collects the cells of key -1, which no member holds
        w = np.bincount(self.cell_keys + 1, values, minlength=self.keys + 1)[1:]
        pos, neg = w > 0, w < 0
        hi, lo = float(w[pos].sum()), float(w[neg].sum())
        held, total = (pos, hi) if hi >= -lo else (neg, lo)
        return sum(1 << int(j) for j in np.flatnonzero(held)), total


def single_position_window_subsets(
    alphabet: Alphabet, n: int, k: int, position: int
) -> Family:
    """All predicates active at one position: d_i = [window in A], i fixed.

    Enumerates every subset A of the clipped window space at ``position``
    (member m holds window j when bit j of m is set); other positions
    output 0.
    """
    if not 1 <= position <= n:
        raise PreconditionError(f"position {position} outside [1, {n}]")
    table_cells(k, n, alphabet.size)  # before any cell array is built
    shapes = table_shapes(k, n, alphabet.size)
    cell_keys = [
        np.tile(np.arange(cols), rows) if i == position else np.full(rows * cols, -1)
        for i, (rows, cols) in enumerate(shapes, 1)
    ]
    cols = shapes[position - 1][1]
    return Family(k, n, alphabet.size, cols, np.concatenate(cell_keys))


def product_window_family(alphabet: Alphabet, n: int, k: int) -> Family:
    """All per-position window predicates: independent subset per position.

    Keys are (position, window) pairs, so there are
    prod_i 2^(|Sigma|^kc(i)) members.  Position n's windows are the
    lowest bits of a member number and position 1's the highest.
    """
    table_cells(k, n, alphabet.size)  # before any cell array is built
    shapes = table_shapes(k, n, alphabet.size)
    cell_keys, base = [], 0
    for rows, cols in reversed(shapes):
        cell_keys.append(np.tile(base + np.arange(cols), rows))
        base += cols
    return Family(k, n, alphabet.size, base, np.concatenate(cell_keys[::-1]))


def one_prefix_table_family(alphabet: Alphabet, n: int, k: int) -> Family:
    """All tables over (previous prefix token, full k-window).

    The same table applies at every position; at i = 1 the missing
    previous token reads as 0, and clipped windows are zero-padded to
    length k, which preserves the window property.  Member m holds key
    (prev, w) when bit prev * |Sigma|^k + index(w) of m is set.
    """
    size = alphabet.size
    table_cells(k, n, size)  # before any cell array is built
    cell_keys = []
    for rows, cols in table_shapes(k, n, size):
        prev = np.arange(rows) % size
        key = prev[:, None] * size**k + np.arange(cols) * (size**k // cols)
        cell_keys.append(key.ravel())
    return Family(k, n, size, size ** (k + 1), np.concatenate(cell_keys))


def trivial_family(alphabet: Alphabet, n: int, k: int) -> Family:
    """The one-member family of the constant-0 distinguisher."""
    cells = table_cells(k, n, alphabet.size)
    return Family(k, n, alphabet.size, 0, np.full(cells, -1))
