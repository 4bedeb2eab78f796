"""The brute-force oracle suite behind the `verify` subcommand.

Each check pits a production code path against an independent
computation (enumeration, cross-construction, closed form) on small
seeded instances and returns (ok, detail).  ``run_all`` turns each into
one pass/fail row named after the check, also when the check crashes;
the CLI collates the rows into a matrix.  The checks that build and run
circuits do so with the cyclic collector paused (``collector_paused``):
its passes would otherwise walk a circuit right after its builder
returns, and find nothing to free there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .boosting import boost_text
from .construct import (
    build_boosted_rnn,
    build_boosted_rnn_simple,
    distinguisher_to_rnn,
    lm_to_rnn,
)
from .dist import (
    Alphabet,
    entropy,
    kl,
    lm_to_text,
    next_token_loss,
    text_to_lm,
    token_strings,
)
from .distinguishers import (
    advantage,
    offset_decomposition,
    pinsker_bound,
)
from .families import one_prefix_table_family, product_window_family
from .fixedpoint import (
    FixedPointFormat,
    build_boosted_rnn_quantized,
    fraction_error_bound,
    minimal_fraction_bits,
    product_error_bound,
    quantized_run,
)
from .instances import (
    dyadic_lm,
    random_prefix_window_distinguisher,
    random_text,
    rng_for,
)
from .rnn.engine import compile_graph, run
from .rnn.expr import base_c_increment, collector_paused, evaluate, exp_binary, ind_eq
from .rnn.sufficiency import verify_hidden_sufficiency
from .selfboost import best_member, run_algorithm

B2 = Alphabet(2)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)


def _check(name):
    """Register a check under its row name; the check returns (ok, detail)."""

    def wrap(fn):
        fn.check_name = name
        return fn

    return wrap


@_check("round_trip")
def check_round_trip() -> tuple[bool, str]:
    """Round-trip: text <-> next-token model."""
    rng = rng_for(1001)
    worst = 0.0
    for n in (2, 3, 4):
        t = random_text(B2, n, rng)
        back = lm_to_text(text_to_lm(t))
        worst = max(worst, float(np.max(np.abs(back.probs - t.probs))))
    return worst < 1e-10, f"worst gap {worst:.2e}"


@_check("loss_kl_identity")
def check_loss_kl_identity() -> tuple[bool, str]:
    """Identity: n*loss - KL = entropy."""
    rng = rng_for(1009)
    worst = 0.0
    for n in (2, 3, 4, 5):
        p = random_text(B2, n, rng)
        q = text_to_lm(random_text(B2, n, rng))
        gap = abs(n * next_token_loss(p, q) - kl(p, lm_to_text(q)) - entropy(p))
        worst = max(worst, gap)
    return worst < 1e-9, f"worst gap {worst:.2e}"


@_check("pinsker_bound")
def check_pinsker() -> tuple[bool, str]:
    """Advantage bounded by sqrt(k/2n KL) over all window predicates."""
    rng = rng_for(1013)
    margin = float("inf")
    for k in (1, 2):
        family = product_window_family(B2, 4, k)
        for _ in range(5):
            p = random_text(B2, 4, rng)
            q = random_text(B2, 4, rng)
            bound = pinsker_bound(p, q, k)
            _, best = best_member(family, p, q)
            margin = min(margin, bound - abs(best))
    return margin >= -1e-12, f"min margin {margin:.2e}"


@_check("boost_drop")
def check_boost_drop() -> tuple[bool, str]:
    """Boosting drops KL by alpha^2 n / 4k."""
    rng = rng_for(1019)
    worst = float("inf")
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 2)]:
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        res = boost_text(p, q, d)
        slack = (res.kl_before - res.guaranteed_drop) - res.kl_after
        worst = min(worst, slack)
    return worst >= -1e-9, f"min slack {worst:.2e}"


@_check("eq5_consistency")
def check_eq5_consistency() -> tuple[bool, str]:
    """Next-token form reconstructs the boosted table."""
    rng = rng_for(1021)
    worst = 0.0
    for n, k in [(4, 2), (5, 2), (4, 3)]:
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        res = boost_text(p, q, d)
        rebuilt = lm_to_text(res.lm_boosted)
        worst = max(worst, float(np.max(np.abs(rebuilt.probs - res.q_boosted.probs))))
    return worst < 1e-9, f"worst gap {worst:.2e}"


@_check("offset_reconstruction")
def check_offset_reconstruction() -> tuple[bool, str]:
    """Offset decomposition reconstructs the advantage."""
    rng = rng_for(1031)
    worst = 0.0
    for _ in range(5):
        p = random_text(B2, 5, rng)
        q = random_text(B2, 5, rng)
        d = random_prefix_window_distinguisher(B2, 5, 2, rng)
        rep = offset_decomposition(d, p, q)
        recon = sum(w * a for _, w, a in rep.offsets) / 5
        worst = max(worst, abs(recon - advantage(d, p, q)))
    return worst < 1e-10, f"worst {worst:.2e}"


def _compiled_instance(seed, n, k):
    rng = rng_for(seed)
    p = random_text(B2, n, rng)
    qt = random_text(B2, n, rng)
    d = random_prefix_window_distinguisher(B2, n, k, rng)
    res = boost_text(p, qt, d)
    q = lm_to_rnn(text_to_lm(qt), 2)
    D = distinguisher_to_rnn(res.applied, B2, 2)
    return p, qt, res, q, D


@_check("compiled_boost")
@collector_paused
def check_compiled_boost() -> tuple[bool, str]:
    """Compiled boosted circuit matches the analytic conditionals."""
    p, qt, res, q, D = _compiled_instance(1033, 4, 2)
    Qp, report = build_boosted_rnn(q, D, 2, res.alpha, res.offset, 2)
    outs = run(Qp, token_strings(2, 4)).output_at_multiples()
    got = np.stack([outs[i] for i in range(1, 5)])
    worst = float(np.max(np.abs(got - res.lm_boosted.conditionals())))
    ok = worst < 1e-9 and report.built_size == report.formula_size
    return ok, f"worst gap {worst:.2e}"


@_check("cross_construction")
@collector_paused
def check_cross_construction() -> tuple[bool, str]:
    """Doubling construction is trace-equivalent to the efficient one."""
    p, qt, res, q, D = _compiled_instance(1039, 4, 2)
    Qp, _ = build_boosted_rnn(q, D, 2, res.alpha, res.offset, 2)
    Qs = build_boosted_rnn_simple(q, D, 2, res.alpha, res.offset, 2)
    docs = token_strings(2, 4)
    a = run(Qp, docs).output_at_multiples()
    b = run(Qs, docs).output_at_multiples()
    worst = max(float(np.max(np.abs(a[i] - b[i]))) for i in range(1, 5))
    return worst < 1e-12, f"worst gap {worst:.2e}"


@_check("transition_library")
def check_transition_library() -> tuple[bool, str]:
    """Transition library matches the mathematical definitions."""
    bad = 0
    for c in range(-2, 8):
        eq = ind_eq("x", float(c))
        for x in range(-4, 12):
            bad += evaluate(eq, {"x": float(x)}) != float(x == c)
    exprs = base_c_increment(3, 3, ["a", "b", "c"])
    val = [0, 0, 0]
    for step in range(29):
        want = (step + 1) % 27
        val = [
            int(evaluate(e, {"a": val[0], "b": val[1], "c": val[2]})) for e in exprs
        ]
        bad += (val[0] + 3 * val[1] + 9 * val[2]) != want
    e = exp_binary(0.4, "x")
    bad += evaluate(e, {"x": 0.0}) != 1.0
    bad += evaluate(e, {"x": 1.0}) != math.exp(0.4)
    return bad == 0, f"{bad} mismatches"


@_check("hidden_sufficiency")
@collector_paused
def check_hidden_sufficiency() -> tuple[bool, str]:
    """Hidden sufficiency scrubbing on constructed circuits."""
    p, qt, res, q, D = _compiled_instance(1049, 4, 2)
    Qp, _ = build_boosted_rnn(q, D, 2, res.alpha, res.offset, 2)
    rng = rng_for(1051)
    rep = verify_hidden_sufficiency(Qp, trials=5, rng=rng)
    detail = "ok" if rep.ok else str(rep.first_failure())
    return rep.ok, detail


@_check("quantized_boost")
@collector_paused
def check_quantized_boost() -> tuple[bool, str]:
    """Quantized boosted circuit stays within its error envelope."""
    rng = rng_for(1061)
    n, k, ell = 4, 1, 1 / 8
    p = random_text(B2, n, rng)
    lm = dyadic_lm(B2, n, rng, frac_bits=14, min_conditional=ell)
    qt = lm_to_text(lm)
    d = random_prefix_window_distinguisher(B2, n, k, rng)
    res = boost_text(p, qt, d)
    if res.alpha == 0:
        return True, "degenerate draw, skipped"
    q = lm_to_rnn(lm, 2)
    D = distinguisher_to_rnn(res.applied, B2, 2)
    bf = max(minimal_fraction_bits(k, res.alpha, ell), 14)
    out = build_boosted_rnn_quantized(
        q, D, k, res.alpha, res.offset, 2,
        FixedPointFormat(20, bf), FixedPointFormat(2, 8), ell,
    )
    docs = token_strings(2, n)
    prog = compile_graph(out.graph)  # one compile for both runs
    tq = quantized_run(out.graph, out.format, docs, program=prog)
    tx = run(out.graph, docs, program=prog)
    worst = 0.0
    low = 1.0
    for i in range(1, n + 1):
        t = i * out.graph.rnn_time
        worst = max(worst, float(np.max(np.abs(tq.value("out", t) - tx.value("out", t)))))
        low = min(low, float(np.min(tq.value("out", t))))
    ok = (
        worst <= out.max_output_error
        and low >= out.prob_lower_bound
        and tq.saturation_events == 0
    )
    return ok, (
        f"err {worst:.2e} <= {out.max_output_error:.2e}, min cond {low:.4f}"
    )


@_check("error_bounds")
def check_error_bounds() -> tuple[bool, str]:
    """Error-propagation bounds survive fuzzing."""
    rng = rng_for(1063)
    cases = 2000
    # products of m factors, each off by at most delta; factors past m are 1.0
    m = rng.integers(1, 8, size=cases)
    delta = rng.uniform(1e-6, 0.999 / m)
    x = rng.uniform(0, 1, size=(cases, 7))
    y = np.clip(x + rng.uniform(-delta[:, None], delta[:, None], size=x.shape), 0, 1)
    unused = np.arange(7) >= m[:, None]
    x[unused] = y[unused] = 1.0
    gap = np.abs(np.prod(x, axis=1) - np.prod(y, axis=1))
    bound = np.fromiter(map(product_error_bound, m.tolist(), delta.tolist()), float)
    bad = int((gap > bound + 1e-15).sum())
    # fractions (x + delta) / (y - delta) with x <= y and delta < ell <= y
    y = rng.uniform(0.05, 1.0, size=cases)
    x = rng.uniform(0.01, y)
    ell = rng.uniform(0.01, y)
    delta = rng.uniform(1e-6, ell * 0.999)
    args = (x.tolist(), y.tolist(), delta.tolist(), ell.tolist())
    bound = np.fromiter(map(fraction_error_bound, *args), float)
    bad += int(((x + delta) / (y - delta) > bound + 1e-12).sum())
    return bad == 0, f"{bad} violations"


@_check("selfboost_loop")
def check_selfboost_loop() -> tuple[bool, str]:
    """Self-boosting loop certifies family indistinguishability."""
    rng = rng_for(1069)
    p = random_text(B2, 4, rng)
    fam = one_prefix_table_family(B2, 4, 1)
    model, trace = run_algorithm(
        "plain", p, fam, 0.3, 1, 3, 7, random.Random(17)
    )
    ok = (
        trace.termination == "loss_plateau"
        and trace.final_advantage <= 0.3 + 1e-9
        and all(
            a.loss >= b.loss - 1e-12
            for a, b in zip(trace.rounds, trace.rounds[1:])
        )
    )
    return ok, f"rounds {len(trace.rounds)}, final adv {trace.final_advantage:.3f}"


ALL_CHECKS = [
    check_round_trip,
    check_loss_kl_identity,
    check_pinsker,
    check_boost_drop,
    check_eq5_consistency,
    check_offset_reconstruction,
    check_compiled_boost,
    check_cross_construction,
    check_transition_library,
    check_hidden_sufficiency,
    check_quantized_boost,
    check_error_bounds,
    check_selfboost_loop,
]


def run_all(checks=None) -> list[CheckResult]:
    out = []
    for fn in checks or ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed oracle is a failed check
            ok, detail = False, f"crashed: {e!r}"
        out.append(CheckResult(fn.check_name, ok, detail))
    return out
