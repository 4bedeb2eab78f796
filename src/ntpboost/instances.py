"""Seeded random instances for tests, verification, and fixtures."""

from __future__ import annotations

from itertools import product

import numpy as np

from .dist import Alphabet, LanguageModel, TextDistribution
from .distinguishers import Distinguisher, table_distinguisher
from .errors import PreconditionError


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_text(
    alphabet: Alphabet, n: int, rng: np.random.Generator, full_support: bool = True
) -> TextDistribution:
    raw = rng.random(alphabet.size**n)
    if full_support:
        raw += 0.05
    return TextDistribution(alphabet, n, raw / raw.sum())


def random_lm(
    alphabet: Alphabet,
    n: int,
    rng: np.random.Generator,
    min_conditional: float = 0.0,
) -> LanguageModel:
    s = alphabet.size
    levels = []
    for i in range(n):
        raw = rng.random((s**i, s)) + 1e-3
        rows = raw / raw.sum(axis=1, keepdims=True)
        if min_conditional > 0.0:
            # mix with uniform so every conditional clears the floor
            lam = min_conditional * s
            rows = (1 - lam) * rows + lam / s
        levels.append(rows)
    return LanguageModel(alphabet, n, tuple(levels))


def dyadic_lm(
    alphabet: Alphabet,
    n: int,
    rng: np.random.Generator,
    frac_bits: int,
    min_conditional: float,
) -> LanguageModel:
    """Random model whose conditionals are multiples of 2**-frac_bits.

    Rows are built on the grid and the last entry absorbs the remainder,
    so each row sums to 1 exactly and stays >= min_conditional.
    """
    s = alphabet.size
    grid = 2.0**-frac_bits
    lo = int(np.ceil(min_conditional / grid))
    if lo * s * grid > 1.0:
        raise PreconditionError(
            f"min_conditional {min_conditional} is too large for |Sigma| = {s} "
            f"on a 2^-{frac_bits} grid: the rows would sum past 1"
        )
    levels = []
    for i in range(n):
        rows = np.empty((s**i, s))
        for r in range(s**i):
            ticks = np.full(s, lo, dtype=np.int64)
            free = int(round(1.0 / grid)) - lo * s
            for j in range(s - 1):
                add = int(rng.integers(0, free + 1))
                ticks[j] += add
                free -= add
            ticks[s - 1] += free
            rng.shuffle(ticks)
            rows[r] = ticks * grid
        levels.append(rows)
    return LanguageModel(alphabet, n, tuple(levels))


def random_window_table_distinguisher(
    alphabet: Alphabet, n: int, k: int, rng: np.random.Generator
) -> Distinguisher:
    """Random predicate of (position, clipped window), as a table."""
    entries = {}
    for i in range(1, n + 1):
        kc = min(k, n - i + 1)
        for w in product(alphabet.tokens, repeat=kc):
            if rng.random() < 0.5:
                entries[(i, w)] = 1
    return table_distinguisher(k, n, entries, keyed_on="window")


def random_prefix_window_distinguisher(
    alphabet: Alphabet, n: int, k: int, rng: np.random.Generator
) -> Distinguisher:
    """Random predicate of (position, last prefix token, clipped window)."""
    entries = {}
    for i in range(1, n + 1):
        kc = min(k, n - i + 1)
        prevs = list(alphabet.tokens) if i > 1 else [0]
        for prev in prevs:
            for w in product(alphabet.tokens, repeat=kc):
                if rng.random() < 0.5:
                    entries[(i, prev, w)] = 1
    return table_distinguisher(k, n, entries, keyed_on="prev_window")
