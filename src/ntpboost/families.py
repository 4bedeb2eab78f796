"""Enumerable distinguisher families used by oracles and the self-boost loop.

Each family is built as one stacked bit array per position, of shape
(members, |Sigma|^(i-1), |Sigma|^kc(i)); member j's tables are the
slices at j.
"""

from __future__ import annotations

import numpy as np

from .dist import Alphabet
from .distinguishers import (
    Distinguisher,
    constant_distinguisher,
    from_tables,
    table_shapes,
)
from .errors import PreconditionError, SizingError

FAMILY_CAP = 1 << 17


def _check_family_size(count: int, cap: int = FAMILY_CAP) -> None:
    if count > cap:
        raise SizingError(f"family of {count} distinguishers exceeds cap {cap}")


def _members(
    alphabet: Alphabet, n: int, k: int, stacked: list[np.ndarray]
) -> list[Distinguisher]:
    return [
        from_tables(k, n, alphabet.size, [t[j] for t in stacked])
        for j in range(len(stacked[0]))
    ]


def _subset_bits(subsets: np.ndarray, cols: int) -> np.ndarray:
    """Bit j of each subset number, shaped (len(subsets), 1, cols)."""
    return ((subsets[:, None, None] >> np.arange(cols)) & 1).astype(np.uint8)


def single_position_window_subsets(
    alphabet: Alphabet, n: int, k: int, position: int
) -> list[Distinguisher]:
    """All predicates active at one position: d_i = [window in A], i fixed.

    Enumerates every subset A of the clipped window space at ``position``
    (member m holds window j when bit j of m is set); other positions
    output 0.
    """
    if not 1 <= position <= n:
        raise PreconditionError(f"position {position} outside [1, {n}]")
    shapes = table_shapes(k, n, alphabet.size)
    cols = shapes[position - 1][1]
    _check_family_size(2**cols)
    subsets = _subset_bits(np.arange(2**cols), cols)
    stacked = [
        np.broadcast_to(subsets if i == position else 0, (2**cols,) + shape)
        for i, shape in enumerate(shapes, 1)
    ]
    return _members(alphabet, n, k, stacked)


def product_window_family(alphabet: Alphabet, n: int, k: int) -> list[Distinguisher]:
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
    stacked = [
        np.broadcast_to(_subset_bits(choice, cols), (count, rows, cols))
        for choice, (rows, cols) in zip(choices, shapes)
    ]
    return _members(alphabet, n, k, stacked)


def one_prefix_table_family(
    alphabet: Alphabet, n: int, k: int
) -> list[Distinguisher]:
    """All tables over (previous prefix token, full k-window).

    The same table applies at every position; at i = 1 the missing
    previous token reads as 0, and clipped windows are zero-padded to
    length k, which preserves the window property.  Member m holds key
    (prev, w) when bit prev * |Sigma|^k + index(w) of m is set.
    """
    size = alphabet.size
    keys = size ** (k + 1)
    _check_family_size(2**keys)
    members = np.arange(2**keys)[:, None, None]
    stacked = []
    for rows, cols in table_shapes(k, n, size):
        prev = np.arange(rows) % size
        key = prev[:, None] * size**k + np.arange(cols) * (size**k // cols)
        stacked.append(((members >> key) & 1).astype(np.uint8))
    return _members(alphabet, n, k, stacked)


def trivial_family(k: int, n: int) -> list[Distinguisher]:
    return [constant_distinguisher(k, n, 0)]
