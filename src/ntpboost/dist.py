"""Exact text distributions and language models over small alphabets.

A text distribution is a dense probability table over all documents in
Sigma^n; a language model is the equivalent family of next-token
conditionals q(y|s).  Everything here is exact enumeration: marginals,
block conditionals, entropy, KL divergence, total variation, and the
next-token loss are computed by summing the full table.  Natural
logarithms throughout.

Documents are tuples of integer tokens in [0, size).  Tables are indexed
in lexicographic document order (first token most significant).  That
layout is written once, in ``lex_index`` and ``token_strings``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import SizingError, SupportError, ValidationError, ZeroMarginalError

NORM_ATOL = 1e-12
DEFAULT_MAX_ENUM = 1 << 20

Document = tuple[int, ...]


def enumeration_cap() -> int:
    """Hard cap on table sizes; NTPBOOST_MAX_ENUM overrides (unsafe).

    Raises SizingError when the override is not a positive integer.
    """
    raw = os.environ.get("NTPBOOST_MAX_ENUM")
    if raw is None:
        return DEFAULT_MAX_ENUM
    bad = SizingError(f"NTPBOOST_MAX_ENUM must be a positive integer, got {raw!r}")
    try:
        cap = int(raw)
    except ValueError:
        raise bad from None
    if cap < 1:
        raise bad
    return cap


@dataclass(frozen=True)
class Alphabet:
    """Finite token alphabet; tokens are the integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.size}")

    @property
    def tokens(self) -> range:
        return range(self.size)


def _check_table_size(size: int, n: int) -> int:
    total = size**n
    cap = enumeration_cap()
    if total > cap:
        raise SizingError(
            f"dense table of {size}^{n} = {total} entries exceeds the exact "
            f"enumeration cap {cap}"
        )
    return total


def lex_index(tokens, size: int) -> int:
    """Table index of a token string: lexicographic, first token most significant.

    ValidationError unless every token is an integer in [0, size).  A
    plain loop: it runs per prefix on the next-token paths.
    """
    idx = 0
    for tok in tokens:
        if not ((type(tok) is int or isinstance(tok, np.integer)) and 0 <= tok < size):
            raise ValidationError(f"token {tok!r} is not an integer in [0, {size})")
        idx = idx * size + tok
    return int(idx)


def token_strings(size: int, length: int) -> np.ndarray:
    """Every token string of ``length`` as a column of a (length,
    size**length) array: column j has ``lex_index`` j.  Within the cap."""
    if size < 1 or length < 0:
        raise ValidationError(f"need size >= 1 and length >= 0, got {size}, {length}")
    total = _check_table_size(size, length)
    return np.indices((size,) * length).reshape(length, total)


@dataclass(frozen=True)
class TextDistribution:
    """Dense joint distribution over documents in Sigma^n.

    ``probs`` has size^n entries in lexicographic document order and is
    made read-only on construction.
    """

    alphabet: Alphabet
    n: int
    probs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"document length must be >= 1, got {self.n}")
        total = _check_table_size(self.alphabet.size, self.n)
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != (total,):
            raise ValidationError(
                f"probs must have shape ({total},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probs contains non-finite entries")
        if np.any(arr < 0):
            raise ValidationError("probs contains negative entries")
        if abs(float(arr.sum()) - 1.0) > NORM_ATOL:
            raise ValidationError(
                f"probs sum to {arr.sum():.17g}, expected 1 within {NORM_ATOL}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    # -- indexing -----------------------------------------------------

    def document(self, idx: int) -> Document:
        """The document at table index ``idx``; the inverse of ``lex_index``."""
        total = self.probs.size
        if not (isinstance(idx, (int, np.integer)) and 0 <= idx < total):
            raise ValidationError(f"document index {idx!r} outside [0, {total})")
        return tuple(map(int, np.unravel_index(idx, (self.alphabet.size,) * self.n)))

    def prob(self, doc: Document) -> float:
        if len(doc) != self.n:
            raise ValidationError(f"document length {len(doc)} != n={self.n}")
        return float(self.probs[lex_index(doc, self.alphabet.size)])

    # -- marginals ----------------------------------------------------

    def prefix_marginals(self, level: int) -> np.ndarray:
        """Marginal probabilities of all prefixes of length ``level``."""
        if not 0 <= level <= self.n:
            raise ValidationError(f"prefix level {level} outside [0, {self.n}]")
        s = self.alphabet.size
        return self.probs.reshape(s**level, s ** (self.n - level)).sum(axis=1)

    def marginal(self, s: Document) -> float:
        """Total probability of documents extending the prefix ``s``."""
        if len(s) > self.n:
            raise ValidationError(f"prefix longer than n={self.n}: {s}")
        size = self.alphabet.size
        idx = lex_index(s, size)
        block = size ** (self.n - len(s))
        return float(self.probs[idx * block : (idx + 1) * block].sum())


@dataclass(frozen=True)
class LanguageModel:
    """Next-token conditionals for all prefixes of length < n.

    ``levels[i]`` has shape (size^i, size): row s is the distribution of
    the (i+1)-th token given the prefix with lexicographic index s.
    """

    alphabet: Alphabet
    n: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"document length must be >= 1, got {self.n}")
        _check_table_size(self.alphabet.size, self.n)
        s = self.alphabet.size
        if len(self.levels) != self.n:
            raise ValidationError(
                f"need {self.n} conditional levels, got {len(self.levels)}"
            )
        frozen = []
        for i, lvl in enumerate(self.levels):
            arr = np.asarray(lvl, dtype=np.float64)
            if arr.shape != (s**i, s):
                raise ValidationError(
                    f"level {i} must have shape ({s ** i}, {s}), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"level {i} contains non-finite entries")
            if np.any(arr < -NORM_ATOL) or np.any(arr > 1 + NORM_ATOL):
                raise ValidationError(f"level {i} has conditionals outside [0, 1]")
            rows = arr.sum(axis=1)
            bad = np.where(np.abs(rows - 1.0) > NORM_ATOL)[0]
            if bad.size:
                raise ValidationError(
                    f"level {i} prefix {int(bad[0])} sums to {rows[bad[0]]:.17g}, "
                    f"expected 1 within {NORM_ATOL}"
                )
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "levels", tuple(frozen))

    def row(self, prefix: Document) -> np.ndarray:
        if len(prefix) >= self.n:
            raise ValidationError(f"prefix length {len(prefix)} must be < n={self.n}")
        return self.levels[len(prefix)][lex_index(prefix, self.alphabet.size)]

    def prob(self, token: int, prefix: Document) -> float:
        """q(token | prefix): level |prefix| flattened, at the string prefix.token."""
        x = (*prefix, token)
        if len(x) > self.n:
            raise ValidationError(f"prefix length {len(prefix)} must be < n={self.n}")
        return float(self.levels[len(prefix)].flat[lex_index(x, self.alphabet.size)])

    def conditionals(self) -> np.ndarray:
        """Shape (n, size**n): row i-1 holds q(x_i | x_{:i}) for every document
        x in table order; level i flattened is indexed by x_{:i+1}, the prefix
        of a contiguous run of size**(n-1-i) documents."""
        s, n = self.alphabet.size, self.n
        runs = [np.repeat(q.ravel(), s ** (n - 1 - i)) for i, q in enumerate(self.levels)]
        return np.stack(runs)


# ---------------------------------------------------------------------------
# conversions


def lm_to_text(lm: LanguageModel) -> TextDistribution:
    """Chain-rule product: result(x) = prod_i lm(x_i | x_{:i})."""
    probs = np.ones(1)
    for lvl in lm.levels:
        probs = (probs[:, None] * lvl).reshape(-1)
    return TextDistribution(lm.alphabet, lm.n, probs)


def text_to_lm(text: TextDistribution) -> LanguageModel:
    """Conditionals lm(y|s) = marginal(s.y) / marginal(s).

    Prefixes with zero marginal get the uniform row so the model stays
    total; those rows are never reached when sampling from ``text``.
    """
    s = text.alphabet.size
    levels = []
    marg = text.prefix_marginals(0)
    for i in range(text.n):
        nxt = text.prefix_marginals(i + 1).reshape(s**i, s)
        rows = np.empty_like(nxt)
        positive = marg > 0
        rows[positive] = nxt[positive] / marg[positive, None]
        rows[~positive] = 1.0 / s
        # kill tiny rounding drift outside [0,1]; ratios stay exact otherwise
        np.clip(rows, 0.0, 1.0, out=rows)
        levels.append(rows)
        marg = nxt.reshape(-1)
    return LanguageModel(text.alphabet, text.n, tuple(levels))


def uniform_text(alphabet: Alphabet, n: int) -> TextDistribution:
    total = _check_table_size(alphabet.size, n)
    return TextDistribution(alphabet, n, np.full(total, 1.0 / total))


def uniform_lm(alphabet: Alphabet, n: int) -> LanguageModel:
    s = alphabet.size
    return LanguageModel(
        alphabet, n, tuple(np.full((s**i, s), 1.0 / s) for i in range(n))
    )


def point_mass_text(alphabet: Alphabet, n: int, doc: Document) -> TextDistribution:
    total = _check_table_size(alphabet.size, n)
    if len(doc) != n:
        raise ValidationError(f"document length {len(doc)} != n={n}")
    probs = np.zeros(total)
    probs[lex_index(doc, alphabet.size)] = 1.0
    return TextDistribution(alphabet, n, probs)


# ---------------------------------------------------------------------------
# block conditionals


def block_conditional(text: TextDistribution, s: Document, z: Document) -> float:
    """marginal(s.z) / marginal(s); errors if marginal(s) = 0."""
    if len(s) + len(z) > text.n:
        raise ValidationError(
            f"|s| + |z| = {len(s) + len(z)} exceeds n = {text.n}"
        )
    ms = text.marginal(s)
    if ms <= 0.0:
        raise ZeroMarginalError(f"marginal of prefix {s} is zero")
    return text.marginal(tuple(s) + tuple(z)) / ms


def block_distribution_completed(
    text: TextDistribution, s: Document, length: int
) -> np.ndarray:
    """Conditional distribution of the next ``length`` tokens given ``s``.

    Zero-marginal prefixes fall back to the uniform completion, matching
    the total LanguageModel produced by text_to_lm.  Returned array is
    indexed lexicographically over Sigma^length.
    """
    size = text.alphabet.size
    if len(s) + length > text.n:
        raise ValidationError(
            f"|s| + length = {len(s) + length} exceeds n = {text.n}"
        )
    idx = lex_index(s, size)
    rest = size ** (text.n - len(s))
    block = text.probs[idx * rest : (idx + 1) * rest]
    sums = block.reshape(size**length, size ** (text.n - len(s) - length)).sum(axis=1)
    total = sums.sum()
    if total <= 0.0:
        return np.full(size**length, 1.0 / size**length)
    return sums / total


def extended_block_distribution(
    text: TextDistribution, s: Document, length: int
) -> np.ndarray:
    """Like block_distribution_completed but allows s.z to run past n.

    Positions beyond the document end contribute uniform factors, so the
    result is the conditional of the distribution extended with uniform
    conditionals after position n.
    """
    size = text.alphabet.size
    real = min(length, text.n - len(s))
    if real < 0:
        raise ValidationError(f"prefix {s} longer than n = {text.n}")
    base = block_distribution_completed(text, s, real)
    tail = length - real
    if tail == 0:
        return base
    return np.repeat(base, size**tail) / size**tail


# ---------------------------------------------------------------------------
# divergences and losses


def entropy(p: TextDistribution) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    mask = p.probs > 0
    vals = p.probs[mask]
    return float(-(vals * np.log(vals)).sum())


def kl(p: TextDistribution, q: TextDistribution) -> float:
    """KL(p || q) = sum_x p(x) log(p(x)/q(x)), natural log."""
    if p.alphabet.size != q.alphabet.size or p.n != q.n:
        raise ValidationError("distributions must share alphabet and n")
    mask = p.probs > 0
    bad = mask & (q.probs <= 0)
    if np.any(bad):
        doc = p.document(int(np.argmax(bad)))
        raise SupportError(
            f"KL undefined: q assigns zero probability to document {doc} "
            f"in the support of p"
        )
    pm = p.probs[mask]
    qm = q.probs[mask]
    return float((pm * (np.log(pm) - np.log(qm))).sum())


def tv(p: TextDistribution, q: TextDistribution) -> float:
    """Total variation distance (1/2) |p - q|_1."""
    if p.alphabet.size != q.alphabet.size or p.n != q.n:
        raise ValidationError("distributions must share alphabet and n")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def next_token_loss(p: TextDistribution, q: LanguageModel) -> float:
    """-E_{x~p} (1/n) sum_i log q(x_i | x_{:i}), computed per position."""
    if p.alphabet.size != q.alphabet.size or p.n != q.n:
        raise ValidationError("distribution and model must share alphabet and n")
    s = p.alphabet.size
    total = 0.0
    for i in range(p.n):
        joint = p.prefix_marginals(i + 1).reshape(s**i, s)
        mask = joint > 0
        lvl = q.levels[i]
        bad = mask & (lvl <= 0)
        if np.any(bad):
            *prefix, tok = token_strings(s, i + 1)[:, int(np.argmax(bad))].tolist()
            raise SupportError(
                f"next-token loss undefined: q({tok}|{tuple(prefix)}) = 0 on the "
                f"support of p"
            )
        total += float(-(joint[mask] * np.log(lvl[mask])).sum())
    return total / p.n


@dataclass(frozen=True)
class DivergenceReport:
    """KL, entropy, loss, and TV for one (p, q) pair, in nats."""

    kl: float
    entropy_p: float
    loss_q: float
    tv: float
    n: int

    def __post_init__(self):
        if self.kl < -1e-12:
            raise ValidationError(f"negative KL {self.kl}")
        if not -1e-12 <= self.tv <= 1 + 1e-12:
            raise ValidationError(f"TV outside [0,1]: {self.tv}")
        gap = self.n * self.loss_q - self.kl - self.entropy_p
        if abs(gap) > 1e-9:
            raise ValidationError(
                f"loss/KL/entropy identity violated by {gap:.3e}"
            )


def divergence_report(p: TextDistribution, q: LanguageModel) -> DivergenceReport:
    qt = lm_to_text(q)
    return DivergenceReport(
        kl=kl(p, qt),
        entropy_p=entropy(p),
        loss_q=next_token_loss(p, q),
        tv=tv(p, qt),
        n=p.n,
    )

