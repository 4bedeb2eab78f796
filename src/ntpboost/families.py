"""Enumerable distinguisher families used by oracles and the self-boost loop.

A family is one bit matrix (``Family.bits``) with a row per member; a
member's ``Distinguisher`` is built only when it is asked for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dist import Alphabet
from .distinguishers import Distinguisher, from_tables, table_cells, table_shapes
from .errors import PreconditionError, SizingError, ValidationError

FAMILY_CAP = 1 << 17


@dataclass(frozen=True, eq=False)
class Family:
    """A finite distinguisher family at one alphabet size, as a bit matrix.

    ``bits`` has shape (members, cells) and is read-only.  Row j holds
    member j's tables D_1..D_n in ``distinguishers.flat`` order: position
    1 first, each D_i row-major (prefix, then clipped window), so cell
    offsets follow ``table_shapes(k, n, size)``.  ``family[j]`` builds
    member j's ``Distinguisher`` from its row; ``len`` and iteration
    work as on a list of members.
    """

    k: int
    n: int
    size: int
    bits: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise PreconditionError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        cells = table_cells(self.k, self.n, self.size)
        arr = np.asarray(self.bits)
        if arr.ndim != 2 or arr.shape[1] != cells:
            raise ValidationError(
                f"family bits have shape {arr.shape}, expected (members, {cells})"
            )
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            raise ValidationError(f"family entry {arr[bad][0].item()!r} is not a bit")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, j) -> Distinguisher:
        row = self.bits[operator.index(j)]
        shapes = table_shapes(self.k, self.n, self.size)
        ends = np.cumsum([r * c for r, c in shapes])[:-1]
        tables = [t.reshape(s) for t, s in zip(np.split(row, ends), shapes)]
        return from_tables(self.k, self.n, self.size, tables)

    def __iter__(self):
        return (self[j] for j in range(len(self)))


def _check_family_size(count: int, cap: int = FAMILY_CAP) -> None:
    if count > cap:
        raise SizingError(f"family of {count} distinguishers exceeds cap {cap}")


def _subset_bits(subsets: np.ndarray, keys: int) -> np.ndarray:
    """Bit j of each subset number, shaped (len(subsets), keys)."""
    return ((subsets[:, None] >> np.arange(keys)) & 1).astype(np.uint8)


def _window_columns(rows: int, cols: int) -> np.ndarray:
    """The window (column) index of each cell of a (rows, cols) table."""
    return np.tile(np.arange(cols), rows)


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
    shapes = table_shapes(k, n, alphabet.size)
    rows, cols = shapes[position - 1]
    _check_family_size(2**cols)
    start = sum(r * c for r, c in shapes[: position - 1])
    bits = np.zeros((2**cols, table_cells(k, n, alphabet.size)), dtype=np.uint8)
    subsets = _subset_bits(np.arange(2**cols), cols)
    bits[:, start : start + rows * cols] = subsets[:, _window_columns(rows, cols)]
    return Family(k, n, alphabet.size, bits)


def product_window_family(alphabet: Alphabet, n: int, k: int) -> Family:
    """All per-position window predicates: independent subset per position.

    Size is prod_i 2^(|Sigma|^kc(i)); only feasible for tiny instances.
    Members run over the per-position subsets with position 1 most
    significant.
    """
    shapes = table_shapes(k, n, alphabet.size)
    count = 1
    for _, cols in shapes:
        count *= 2**cols
        _check_family_size(count)
    choices = np.unravel_index(np.arange(count), [2**cols for _, cols in shapes])
    bits = np.concatenate(
        [
            _subset_bits(choice, cols)[:, _window_columns(rows, cols)]
            for choice, (rows, cols) in zip(choices, shapes)
        ],
        axis=1,
    )
    return Family(k, n, alphabet.size, bits)


def one_prefix_table_family(alphabet: Alphabet, n: int, k: int) -> Family:
    """All tables over (previous prefix token, full k-window).

    The same table applies at every position; at i = 1 the missing
    previous token reads as 0, and clipped windows are zero-padded to
    length k, which preserves the window property.  Member m holds key
    (prev, w) when bit prev * |Sigma|^k + index(w) of m is set.
    """
    size = alphabet.size
    keys = size ** (k + 1)
    _check_family_size(2**keys)
    table_cells(k, n, size)  # before the matrix is allocated
    cell_keys = []
    for rows, cols in table_shapes(k, n, size):
        prev = np.arange(rows) % size
        key = prev[:, None] * size**k + np.arange(cols) * (size**k // cols)
        cell_keys.append(key.ravel())
    bits = _subset_bits(np.arange(2**keys), keys)[:, np.concatenate(cell_keys)]
    return Family(k, n, size, bits)


def trivial_family(alphabet: Alphabet, n: int, k: int) -> Family:
    """The one-member family of the constant-0 distinguisher."""
    cells = table_cells(k, n, alphabet.size)
    return Family(k, n, alphabet.size, np.zeros((1, cells), dtype=np.uint8))
