"""Fixed-point execution and the quantized boosting guarantees.

The quantizer floors the fractional part onto a 2^-b_F grid and
saturates the integer part at 2^b_I; quantized execution snaps every
node value after every update.  The error-propagation bounds (products,
ratios, per-conditional loss gaps) and the quantized boosted build with
its alpha^2/(8k) certificate live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boosting import boosted_lm
from .dist import LanguageModel, TextDistribution, token_strings
from .distinguishers import Distinguisher
from .errors import PreconditionError, ValidationError
from .rnn.engine import ExecutionTrace, Program, quantize_array, run
from .rnn.graph import RnnGraph
from .construct.boosted import ConstructionReport, build_boosted_rnn


@dataclass(frozen=True)
class FixedPointFormat:
    """Sign bit plus integer_bits and fraction_bits of fixed-point budget."""

    integer_bits: int
    fraction_bits: int

    def __post_init__(self):
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ValidationError("bit counts must be nonnegative")


def quantize(x: float, fmt: FixedPointFormat) -> float:
    """Q_b(x) = sign(x) * (min(x_I, 2^b_I) + 2^-b_F * floor(x_F / 2^-b_F))."""
    out, _ = quantize_array(np.array([x]), fmt.integer_bits, fmt.fraction_bits)
    return float(out[0])


def quantized_run(
    graph: RnnGraph,
    fmt: FixedPointFormat,
    input_stream,
    total_steps: int | None = None,
    program: Program | None = None,
) -> ExecutionTrace:
    """Run with every node value snapped to the format after every update.

    ``program`` is ``graph`` compiled, as ``engine.run`` takes it, for a
    caller that runs the same graph more than once.
    """
    return run(
        graph,
        input_stream,
        total_steps=total_steps,
        fixed_point=(fmt.integer_bits, fmt.fraction_bits),
        program=program,
    )


# ---------------------------------------------------------------------------
# error-propagation bounds


def product_error_bound(m: int, delta: float) -> float:
    """|prod x - prod y| <= 2 m delta for per-factor error delta < 1/m."""
    if m < 1:
        raise PreconditionError(f"need m >= 1 factors, got {m}")
    if not 0 < delta < 1.0 / m:
        raise PreconditionError(f"need 0 < delta < 1/m = {1.0 / m}, got {delta}")
    return 2.0 * m * delta


def fraction_error_bound(x: float, y: float, delta: float, ell: float) -> float:
    """(x+d)/(y-d) <= x/y + 2d/(ell-d) for y >= x, y >= ell > d > 0."""
    if not (0 < x <= 1 and 0 < y <= 1 and 0 < delta <= 1 and 0 < ell <= 1):
        raise PreconditionError("arguments must lie in (0, 1]")
    if y < x:
        raise PreconditionError(f"need y >= x, got x={x}, y={y}")
    if not y >= ell > delta:
        raise PreconditionError(f"need y >= ell > delta, got y={y}, ell={ell}, delta={delta}")
    return x / y + 2.0 * delta / (ell - delta)


def boosted_lower_bound_check(
    q: TextDistribution,
    d: Distinguisher,
    alpha: float,
    i0_star: int,
    ell: float,
    slack: float = 1e-12,
) -> bool:
    """Every boosted conditional >= ell/3 when q's conditionals >= ell.

    Checked on the whole boosted table (``boosted_lm``); requires alpha <= 1.
    """
    if alpha > 1.0:
        raise PreconditionError(f"the ell/3 bound assumes alpha <= 1, got {alpha}")
    levels = boosted_lm(q, d, alpha, i0_star).levels
    return all(float(lvl.min()) >= ell / 3.0 - slack for lvl in levels)


def quantized_loss_gap(
    p: TextDistribution,
    q: LanguageModel,
    q_tilde,
    delta: float,
    ell: float,
) -> float:
    """Bound n * delta / (ell - delta) on E_p log(qbar / qbar~).

    ``q_tilde`` maps (prefix, token) -> conditional; it need not be
    normalized (quantized conditionals are not).  Preconditions
    |q - q~| <= delta and q >= ell per conditional are enforced.
    """
    if not 0 < delta < ell:
        raise PreconditionError(f"need 0 < delta < ell, got delta={delta}, ell={ell}")
    size = p.alphabet.size
    for m in range(p.n):
        prefixes = map(tuple, token_strings(size, m).T.tolist())
        for prefix, row in zip(prefixes, q.levels[m].tolist()):
            for tok, qv in enumerate(row):
                if qv < ell - 1e-15:
                    raise PreconditionError(
                        f"q({tok}|{prefix}) = {qv} below the floor {ell}"
                    )
                if abs(qv - q_tilde(prefix, tok)) > delta + 1e-15:
                    raise PreconditionError(
                        f"|q - q~| exceeds delta at ({prefix}, {tok})"
                    )
    return p.n * delta / (ell - delta)


def generalized_loss(p: TextDistribution, cond) -> float:
    """-E_{x~p}(1/n) sum_i log cond(x_{:i}, x_i); cond may be unnormalized."""
    total = 0.0
    docs = token_strings(p.alphabet.size, p.n).T.tolist()
    for idx in np.nonzero(p.probs > 0)[0]:
        doc = tuple(docs[idx])
        ll = 0.0
        for i in range(1, p.n + 1):
            v = cond(doc[: i - 1], doc[i - 1])
            if v <= 0:
                raise PreconditionError(f"nonpositive conditional at {doc[:i]}")
            ll += math.log(v)
        total -= float(p.probs[idx]) * ll
    return total / p.n


# ---------------------------------------------------------------------------
# bounded-bit boosted build


@dataclass(frozen=True)
class QuantizedBoostResult:
    """Quantized boosted circuit with its certificates."""

    graph: RnnGraph
    format: FixedPointFormat
    report: ConstructionReport
    loss_drop_certificate: float  # alpha^2 / 8k
    prob_lower_bound: float  # ell / 4
    max_output_error: float  # 17 k 2^-b_F / ell^k


def check_quantized_boost_preconditions(
    k: int,
    alpha: float,
    ell: float,
    base: int,
    q_format: FixedPointFormat,
    d_format: FixedPointFormat,
    t_d: int,
) -> None:
    """Raise PreconditionError naming the first failing inequality.

    alpha = 0 (nothing to boost) skips the grid condition, whose right
    side degenerates to zero; the certificates are then vacuous.
    """
    if not 0 <= alpha <= 1 or not 0 < ell <= 1:
        raise PreconditionError(
            f"need 0 <= alpha <= 1 and 0 < ell <= 1, got alpha={alpha}, ell={ell}"
        )
    need_int = (
        d_format.integer_bits
        + math.ceil(k * math.log2(base))
        + math.ceil(math.log2(k * t_d))
        + 1
    )
    if q_format.integer_bits < need_int:
        raise PreconditionError(
            f"integer bits: b_I = {q_format.integer_bits} < "
            f"b_D_I + k log|Sigma| + log(k T_D) + 1 = {need_int}"
        )
    if q_format.fraction_bits < d_format.fraction_bits:
        raise PreconditionError(
            f"fraction bits: b_F = {q_format.fraction_bits} < "
            f"b_D_F = {d_format.fraction_bits}"
        )
    if alpha > 0.0:
        budget = alpha**2 * ell ** (k + 1) / (1088.0 * k**2)
        if 2.0**-q_format.fraction_bits > budget:
            raise PreconditionError(
                f"grid: 2^-b_F = {2.0 ** -q_format.fraction_bits:.3e} > "
                f"alpha^2 ell^(k+1) / (1088 k^2) = {budget:.3e}"
            )


def minimal_fraction_bits(k: int, alpha: float, ell: float) -> int:
    """Smallest b_F satisfying the quantized-boost grid condition."""
    budget = alpha**2 * ell ** (k + 1) / (1088.0 * k**2)
    return max(0, math.ceil(-math.log2(budget)))


def build_boosted_rnn_quantized(
    q_graph: RnnGraph,
    d_graph: RnnGraph,
    k: int,
    alpha: float,
    i0_star: int,
    base: int,
    q_format: FixedPointFormat,
    d_format: FixedPointFormat,
    ell: float,
) -> QuantizedBoostResult:
    """Boosted circuit annotated for fixed-point execution.

    The output format is ceil-log accounting on the statement's
    b_I + log(T_Q) integer bits and b_F fraction bits; certificates are
    the certified constants, to be measured by the caller's harness.
    """
    check_quantized_boost_preconditions(
        k, alpha, ell, base, q_format, d_format, d_graph.rnn_time
    )
    graph, report = build_boosted_rnn(q_graph, d_graph, k, alpha, i0_star, base)
    out_format = FixedPointFormat(
        integer_bits=q_format.integer_bits + math.ceil(math.log2(q_graph.rnn_time)),
        fraction_bits=q_format.fraction_bits,
    )
    graph = graph.with_meta(
        bits={"integer": out_format.integer_bits, "fraction": out_format.fraction_bits}
    )
    return QuantizedBoostResult(
        graph=graph,
        format=out_format,
        report=report,
        loss_drop_certificate=alpha**2 / (8.0 * k),
        prob_lower_bound=ell / 4.0,
        max_output_error=17.0 * k * 2.0**-q_format.fraction_bits / ell**k,
    )
