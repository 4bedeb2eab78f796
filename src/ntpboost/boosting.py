"""Analytic boosting: reweight length-k blocks by exp(-alpha*d) and renormalize.

Given a distinguisher with advantage alpha, pick the block offset whose
disjoint blocks carry the largest share of the advantage, multiply each
such block conditional of q by exp(-alpha*d) and renormalize.  The KL
divergence to p provably drops by at least alpha^2 * n / (4k).

The final block may be shorter than k when n is not aligned; it is
reweighted over the clipped window.  Equivalently, the next-token form
(the f1*f2*g ratio) sums over full length-k continuations of a model
extended with uniform conditionals past position n; tail factors
marginalize out, so both views agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (
    Document,
    LanguageModel,
    TextDistribution,
    block_distribution_completed,
    extended_block_distribution,
    kl,
    lex_index,
    lm_to_text,
    text_to_lm,
    token_strings,
)
from .distinguishers import (
    Distinguisher,
    advantage,
    anchor_of,
    anchors,
    complement,
    offset_decomposition,
)
from .errors import PreconditionError, ValidationError, ZeroMarginalError

ALPHA_ZERO_TOL = 1e-15


@dataclass(frozen=True)
class BoostResult:
    """One boosting step: the reweighted distribution and its certificate."""

    q_boosted: TextDistribution
    lm_boosted: LanguageModel
    offset: int
    alpha: float
    kl_before: float
    kl_after: float
    guaranteed_drop: float
    applied: Distinguisher  # the possibly-complemented distinguisher used


def boost_text(
    p: TextDistribution, q: TextDistribution, d: Distinguisher
) -> BoostResult:
    """One boosting step of q against p using d; alpha is recomputed here."""
    if p.alphabet.size != q.alphabet.size or p.n != q.n:
        raise ValidationError("p and q must share alphabet and n")
    raw = advantage(d, p, q)
    kl_before = kl(p, q)
    if abs(raw) <= ALPHA_ZERO_TOL:
        return BoostResult(
            q_boosted=q,
            lm_boosted=text_to_lm(q),
            offset=0,
            alpha=0.0,
            kl_before=kl_before,
            kl_after=kl_before,
            guaranteed_drop=0.0,
            applied=d,
        )
    applied = d if raw > 0 else complement(d)
    alpha = abs(raw)
    report = offset_decomposition(applied, p, q)
    i0 = report.best_offset
    n, k, size = q.n, d.k, q.alphabet.size

    probs = np.array(q.probs)
    tables = applied.tables(size)
    for anchor in anchors(i0, n, k):
        rows, cols = tables[anchor].shape
        weights = np.exp(-alpha * tables[anchor])
        view = probs.reshape(rows, cols, -1)
        qblock = q.probs.reshape(rows, cols, -1).sum(axis=2)
        qmarg = q.prefix_marginals(anchor)
        live = qmarg > 0.0
        z = np.ones(rows)
        z[live] = (qblock[live] / qmarg[live, None] * weights[live]).sum(axis=1)
        view *= (weights / z[:, None])[:, :, None]
    q_boosted = TextDistribution(q.alphabet, n, probs)

    kl_after = kl(p, q_boosted)
    drop = alpha**2 * n / (4.0 * k)
    if kl_after > kl_before - drop + 1e-9:
        raise ValidationError(
            f"KL-descent certificate violated: KL {kl_before:.12g} -> "
            f"{kl_after:.12g}, guaranteed drop {drop:.12g}"
        )
    lm_boosted = boosted_lm(q, applied, alpha, i0)
    if np.max(np.abs(lm_to_text(lm_boosted).probs - q_boosted.probs)) > 1e-9:
        raise ValidationError(
            "boosted next-token model does not reproduce the boosted table"
        )
    return BoostResult(
        q_boosted=q_boosted,
        lm_boosted=lm_boosted,
        offset=i0,
        alpha=alpha,
        kl_before=kl_before,
        kl_after=kl_after,
        guaranteed_drop=drop,
        applied=applied,
    )


def normalization_Z(
    q: TextDistribution, d: Distinguisher, alpha: float, s: Document
) -> float:
    """Z(s) = E_{x~q}[exp(-alpha d_{|s|+1}(x)) | x_{:|s|+1} = s].

    ``s`` must be a block start (|s| congruent to the chosen offset);
    the window is clipped at the document end.
    """
    if q.marginal(s) <= 0.0:
        raise ZeroMarginalError(f"prefix {s} has zero marginal under q")
    block = block_distribution_completed(q, s, min(d.k, q.n - len(s)))
    return float(block @ _f2_row(q, d, alpha, s))


def _f2_row(
    q: TextDistribution, d: Distinguisher, alpha: float, base: Document
) -> np.ndarray:
    """exp(-alpha d_{|base|+1}(base.w)) over the clipped windows w."""
    if len(base) >= q.n:
        raise PreconditionError(f"block start {len(base)} must be < n={q.n}")
    size = q.alphabet.size
    return np.exp(-alpha * d.tables(size)[len(base)][lex_index(base, size)])


def components_f_g(
    q: TextDistribution,
    d: Distinguisher,
    alpha: float,
    i: int,
    s: Document,
    x: Document,
    i0_star: int,
) -> tuple[float, float, int, int]:
    """The f1, f2, g1, g2 pieces of the boosted next-token ratio.

    ``s`` is a length-k candidate continuation of the anchor prefix and
    ``x`` the realized document context covering at least x_{:i+1}
    (i tokens; longer inputs are truncated).  Requires i > i0_star.

      f1 = q(s | x_{:i0+1})            (uniform extension past n)
      f2 = exp(-alpha d_{i0+1}(x_{:i0+1}.s))
      g1 = [s_{:i-i0+1} = x_{i0+1:i+1}]
      g2 = [s_{:i-i0}   = x_{i0+1:i}]
    """
    if i <= i0_star:
        raise PreconditionError(f"position {i} not past the offset {i0_star}")
    if len(s) != d.k:
        raise PreconditionError(f"candidate window must have length k={d.k}")
    if len(x) < i:
        raise PreconditionError(f"context must cover the first {i} tokens")
    s = tuple(s)
    anchor = anchor_of(i, i0_star, d.k)
    base = tuple(x[:anchor])
    realized = tuple(x[anchor:i])  # x_{anchor+1} .. x_i, r0 tokens
    r0 = i - anchor
    block = extended_block_distribution(q, base, d.k)
    f1 = float(block[lex_index(s, q.alphabet.size)])
    kc = min(d.k, q.n - anchor)
    f2 = float(_f2_row(q, d, alpha, base)[lex_index(s[:kc], q.alphabet.size)])
    g1 = 1 if s[:r0] == realized else 0
    g2 = 1 if s[: r0 - 1] == realized[: r0 - 1] else 0
    return f1, f2, g1, g2


def boosted_next_token(
    q: TextDistribution,
    d: Distinguisher,
    alpha: float,
    i0_star: int,
    prefix: Document,
    token: int,
) -> float:
    """Boosted conditional q'(token | prefix) via the f1*f2*g ratio.

    Positions at or before the offset return q's own conditional
    (uniform-completed).  Raises ZeroMarginalError when the denominator
    vanishes, which cannot happen for full-support q.
    """
    prefix = tuple(prefix)
    i = len(prefix) + 1
    if i > q.n:
        raise PreconditionError(f"prefix length {len(prefix)} must be < n={q.n}")
    size = q.alphabet.size
    if i <= i0_star:
        row = extended_block_distribution(q, prefix, 1)
        return float(row[lex_index((token,), size)])
    anchor = anchor_of(i, i0_star, d.k)
    base = prefix[:anchor]
    realized = prefix[anchor:] + (token,)  # x_{anchor+1} .. x_i
    r0 = i - anchor
    block = extended_block_distribution(q, base, d.k)
    # full windows agreeing up to the document end share one f2
    kc = min(d.k, q.n - anchor)
    f2_full = np.repeat(_f2_row(q, d, alpha, base), size ** (d.k - kc))
    # The windows w with g1 = 1 (w_{:r0} = realized) are the run of
    # ``tail`` indices from ``hit``; those with g2 = 1 (w_{:r0-1} =
    # realized_{:r0-1}) are the aligned run of size * tail holding it.
    tail = size ** (d.k - r0)
    hit = lex_index(realized, size) * tail
    first = hit - hit % (size * tail)
    num = 0.0
    den = 0.0
    for w_idx in range(first, first + size * tail):
        f1 = float(block[w_idx])
        if f1 == 0.0:
            continue
        v = f1 * float(f2_full[w_idx])
        den += v
        if hit <= w_idx < hit + tail:
            num += v
    if den <= 0.0:
        raise ZeroMarginalError(
            f"boosted conditional undefined at prefix {prefix}: "
            f"denominator sum is zero"
        )
    return num / den


def boosted_lm(
    q: TextDistribution, d: Distinguisher, alpha: float, i0_star: int
) -> LanguageModel:
    """Full table of boosted next-token conditionals (the ratio form).

    Prefixes where the ratio is undefined (possible only off q's support)
    fall back to the uniform row so the model stays total.
    """
    size = q.alphabet.size
    levels = []
    for m in range(q.n):
        rows = np.empty((size**m, size))
        for s_idx, prefix in enumerate(token_strings(size, m).T.tolist()):
            for tok in range(size):
                try:
                    rows[s_idx, tok] = boosted_next_token(
                        q, d, alpha, i0_star, prefix, tok
                    )
                except ZeroMarginalError:
                    rows[s_idx, tok] = 1.0 / size
        levels.append(rows)
    return LanguageModel(q.alphabet, q.n, tuple(levels))

