"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with -s to see one summary line per criterion.  Instance matrices
are seeded and shared between criteria that quote the same matrix.
"""

import math
import random
import time
from itertools import product

import numpy as np
import pytest

from ntpboost.boosting import boost_text
from ntpboost.construct import (
    build_boosted_rnn,
    build_boosted_rnn_simple,
    distinguisher_to_rnn,
    lm_to_rnn,
)
from ntpboost.dist import (
    Alphabet,
    entropy,
    kl,
    lm_to_text,
    next_token_loss,
    text_to_lm,
)
from ntpboost.distinguishers import advantage, pinsker_bound
from ntpboost.families import (
    one_prefix_table_family,
    product_window_family,
    single_position_window_subsets,
)
from ntpboost.fixedpoint import (
    FixedPointFormat,
    build_boosted_rnn_quantized,
    fraction_error_bound,
    generalized_loss,
    minimal_fraction_bits,
    product_error_bound,
    quantized_loss_gap,
    quantized_run,
)
from ntpboost.instances import (
    dyadic_lm,
    random_prefix_window_distinguisher,
    random_text,
    random_window_table_distinguisher,
    rng_for,
)
from ntpboost.rnn.engine import run
from ntpboost.rnn.expr import (
    and_,
    base_c_increment,
    evaluate,
    exp_binary,
    ind_eq,
    ind_ge,
    ind_le,
    lnot,
    or_,
)
from ntpboost.rnn.sufficiency import verify_hidden_sufficiency
from ntpboost.selfboost import (
    Schedule,
    best_member,
    empirical_bad_set,
    reference_trajectory,
    run_algorithm,
)

B2 = Alphabet(2)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criteria 1 and 2 share the 200-instance boosting matrix ---------------


@pytest.fixture(scope="module")
def boost_matrix():
    out = []
    start = time.monotonic()
    seed = 0
    while len(out) < 200:
        seed += 1
        rng = rng_for(10_000 + seed)
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 4))
        if k > n:
            continue
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        d = random_window_table_distinguisher(B2, n, k, rng)
        out.append((n, k, p, q, boost_text(p, q, d)))
    return out, time.monotonic() - start


def test_criterion_1_kl_drop_certificate(boost_matrix):
    instances, build_time = boost_matrix
    start = time.monotonic()
    worst = -float("inf")
    for n, k, p, q, res in instances:
        violation = res.kl_after - (res.kl_before - res.alpha**2 * n / (4 * k))
        worst = max(worst, violation)
        assert violation <= 1e-9
    elapsed = build_time + (time.monotonic() - start)
    report(
        1,
        worst <= 1e-9 and elapsed < 30.0,
        f"KL drop certificate on 200 instances, worst violation "
        f"{worst:.2e} <= 1e-9, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_eq45_consistency(boost_matrix):
    instances, _ = boost_matrix
    worst = 0.0
    for n, k, p, q, res in instances:
        rebuilt = lm_to_text(res.lm_boosted)
        worst = max(worst, float(np.max(np.abs(rebuilt.probs - res.q_boosted.probs))))
    report(
        2,
        worst <= 1e-9,
        f"next-token form rebuilds the boosted table on 200 instances, "
        f"worst gap {worst:.2e} <= 1e-9",
    )


# -- criteria 3 and 4 share the 50-instance compilation matrix -------------


@pytest.fixture(scope="module")
def compiled_matrix():
    shapes = [(3, 1)] * 15 + [(4, 1)] * 15 + [(3, 2)] * 10 + [(4, 2)] * 10
    out = []
    start = time.monotonic()
    for idx, (n, k) in enumerate(shapes):
        rng = rng_for(20_000 + idx)
        p = random_text(B2, n, rng)
        qt = random_text(B2, n, rng)
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        res = boost_text(p, qt, d)
        q = lm_to_rnn(text_to_lm(qt), 2)
        D = distinguisher_to_rnn(res.applied, B2, 2)
        graph, rep = build_boosted_rnn(q, D, k, res.alpha, res.offset, 2)
        docs = np.array(list(product(range(2), repeat=n))).T
        outs = run(graph, docs).output_at_multiples()
        out.append((n, k, q, D, res, graph, rep, docs, outs))
    return out, time.monotonic() - start


def test_criterion_3_compiled_boost(compiled_matrix):
    instances, build_time = compiled_matrix
    start = time.monotonic()
    worst = 0.0
    for n, k, q, D, res, graph, rep, docs, outs in instances:
        assert rep.built_size == q.size + q.hidden_size + D.size + D.hidden_size + 3 * k + 12
        assert rep.built_hidden == q.hidden_size + D.hidden_size + 2 * k + 6
        assert rep.built_time == (2**k + 1) * k * (max(q.rnn_time, D.rnn_time) + 4)
        for col in range(docs.shape[1]):
            doc = tuple(int(x) for x in docs.T[col])
            for i in range(1, n + 1):
                want = res.lm_boosted.prob(doc[i - 1], doc[: i - 1])
                worst = max(worst, abs(float(outs[i][col]) - want))
        assert worst <= 1e-9
    elapsed = build_time + (time.monotonic() - start)
    report(
        3,
        worst <= 1e-9 and elapsed < 300.0,
        f"compiled boosted circuits match analytic conditionals on 50 "
        f"instances (worst gap {worst:.2e} <= 1e-9) with exact node "
        f"accounting, {elapsed:.1f}s < 300s",
    )


def test_criterion_4_cross_construction(compiled_matrix):
    instances, _ = compiled_matrix
    start = time.monotonic()
    worst = 0.0
    for n, k, q, D, res, graph, rep, docs, outs in instances:
        simple = build_boosted_rnn_simple(q, D, k, res.alpha, res.offset, 2)
        souts = run(simple, docs).output_at_multiples()
        for i in range(1, n + 1):
            worst = max(worst, float(np.max(np.abs(souts[i] - outs[i]))))
        assert worst <= 1e-12
    elapsed = time.monotonic() - start
    report(
        4,
        worst <= 1e-12,
        f"doubling and hidden-copy constructions trace-equivalent on 50 "
        f"instances, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_window_predicate_bound():
    n = 4
    families = {k: product_window_family(B2, n, k) for k in (1, 2)}
    worst_margin = float("inf")
    for idx in range(50):
        rng = rng_for(30_000 + idx)
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        for k in (1, 2):
            bound = pinsker_bound(p, q, k)
            _, best = best_member(families[k], p, q)
            worst_margin = min(worst_margin, bound - abs(best))
    # anchor the decomposition against explicit subset enumeration
    rng = rng_for(30_999)
    p = random_text(B2, n, rng)
    q = random_text(B2, n, rng)
    for k in (1, 2):
        bound = pinsker_bound(p, q, k)
        for i in range(1, n + 1):
            for d in single_position_window_subsets(B2, n, k, position=i):
                assert abs(advantage(d, p, q)) <= bound + 1e-12
    report(
        5,
        worst_margin >= -1e-12,
        f"every per-position window predicate within sqrt(k/2n KL) on 50 "
        f"pairs, min margin {worst_margin:.3e}",
    )


def test_criterion_6_loss_kl_identity():
    worst = 0.0
    for idx in range(100):
        rng = rng_for(40_000 + idx)
        n = int(rng.integers(2, 7))
        p = random_text(B2, n, rng)
        q = text_to_lm(random_text(B2, n, rng))
        gap = abs(n * next_token_loss(p, q) - kl(p, lm_to_text(q)) - entropy(p))
        worst = max(worst, gap)
    report(
        6,
        worst <= 1e-9,
        f"n*loss - KL = entropy on 100 instances, worst gap {worst:.2e} <= 1e-9",
    )


def test_criterion_7_algorithm1_loop():
    start = time.monotonic()
    eps = 0.3
    details = []
    for k, n, inst_seed, draws in ((1, 4, 51_001, 4), (2, 4, 51_002, 2)):
        rng = rng_for(inst_seed)
        p = random_text(B2, n, rng)
        fam = one_prefix_table_family(B2, n, k)
        schedule = Schedule("plain", 7, k, 3, eps, B2)
        traj = reference_trajectory(p, schedule, fam)
        lo, hi = schedule.j0_range()
        bad = empirical_bad_set(traj, schedule, range(lo, hi + 2))
        round_bound = 4 * k * math.log(2) / eps**2 + 1
        for draw in range(draws):
            model, trace = run_algorithm(
                "plain", p, fam, eps, k, 3, 7, random.Random(draw)
            )
            assert len(trace.rounds) <= round_bound
            assert trace.final_advantage <= eps + 1e-9
            if trace.j0 + 1 not in bad:
                assert len(trace.rounds) == 2
        details.append(f"k={k}: |B|={len(bad)}, draws={draws}")
    elapsed = time.monotonic() - start
    report(
        7,
        elapsed < 120.0,
        f"loop terminates within 4k ln|S|/eps^2 + 1 rounds with certified "
        f"family advantage <= 0.3 ({'; '.join(details)}), {elapsed:.1f}s < 120s",
    )


def test_criterion_8_quantized_boosting():
    start = time.monotonic()
    ell = 1 / 8
    checked = 0
    for k, seed in ((1, 61_001), (2, 61_002), (1, 61_003)):
        n = 4
        rng = rng_for(seed)
        p = random_text(B2, n, rng)
        lm = dyadic_lm(B2, n, rng, frac_bits=14, min_conditional=ell)
        qt = lm_to_text(lm)
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        res = boost_text(p, qt, d)
        if res.alpha == 0:
            continue
        q = lm_to_rnn(lm, 2)
        D = distinguisher_to_rnn(res.applied, B2, 2)
        d_fmt = FixedPointFormat(2, 8)
        bf = max(minimal_fraction_bits(k, res.alpha, ell), d_fmt.fraction_bits, 14)
        out = build_boosted_rnn_quantized(
            q, D, k, res.alpha, res.offset, 2,
            FixedPointFormat(20, bf), d_fmt, ell,
        )
        docs = np.array(list(product(range(2), repeat=n))).T
        tq = quantized_run(out.graph, out.format, docs)
        tx = run(out.graph, docs)
        assert tq.saturation_events == 0
        qcond = {}
        for col in range(docs.shape[1]):
            doc = tuple(int(x) for x in docs.T[col])
            for i in range(1, n + 1):
                t = i * out.graph.rnn_time
                got = float(tq.value("out", t)[col])
                exact = float(tx.value("out", t)[col])
                assert abs(got - exact) <= out.max_output_error
                qcond[(doc[: i - 1], doc[i - 1])] = got
        assert min(qcond.values()) >= out.prob_lower_bound
        drop = next_token_loss(p, lm) - generalized_loss(p, lambda s, y: qcond[(s, y)])
        assert drop >= out.loss_drop_certificate - 1e-9
        checked += 1
    assert checked >= 2

    # product / ratio / loss-gap bound fuzz, 10^4 cases each
    rng = rng_for(61_999)
    for _ in range(10_000):
        m = int(rng.integers(1, 9))
        delta = float(rng.uniform(1e-6, 0.999 / m))
        x = rng.uniform(0, 1, size=m)
        y = np.clip(x + rng.uniform(-delta, delta, size=m), 0, 1)
        assert abs(np.prod(x) - np.prod(y)) <= product_error_bound(m, delta) + 1e-15
    for _ in range(10_000):
        yv = float(rng.uniform(0.05, 1.0))
        xv = float(rng.uniform(0.01, yv))
        ellv = float(rng.uniform(0.01, yv))
        deltav = float(rng.uniform(1e-6, ellv * 0.999))
        assert (xv + deltav) / (yv - deltav) <= fraction_error_bound(
            xv, yv, deltav, ellv
        ) + 1e-12
    lm18 = dyadic_lm(B2, 3, rng_for(61_998), frac_bits=12, min_conditional=1 / 8)
    p18 = random_text(B2, 3, rng_for(61_997))
    base_loss = next_token_loss(p18, lm18)
    for case in range(10_000):
        bits = int(rng.integers(6, 12))
        delta = 2.0**-bits
        fmt_bits = bits
        offsets = rng.uniform(0.0, delta, size=16)

        def qt_fn(s, yv, offsets=offsets, delta=delta):
            base = lm18.prob(yv, s)
            slot = (hash((s, yv)) % 16 + 16) % 16
            return max(base - offsets[slot] * 0.999, base - delta)

        bound = quantized_loss_gap(p18, lm18, qt_fn, delta, 1 / 8)
        gap = p18.n * (generalized_loss(p18, qt_fn) - base_loss)
        assert gap <= bound + 1e-12
    elapsed = time.monotonic() - start
    report(
        8,
        True,
        f"quantized boosting within its error envelope on {checked} "
        f"instances; product/ratio/loss-gap bounds survived 10^4 fuzz "
        f"cases each, {elapsed:.1f}s",
    )


def test_criterion_9_transition_library():
    bad = 0
    # indicators on an exhaustive integer grid
    for c in range(-3, 9):
        eq = ind_eq("x", float(c))
        le = ind_le("x", float(c))
        ge = ind_ge("x", float(c))
        for x in range(-6, 15):
            vals = {"x": float(x)}
            bad += evaluate(eq, vals) != float(x == c)
            bad += evaluate(le, vals) != float(x <= c)
            bad += evaluate(ge, vals) != float(x >= c)
    # boolean operations over all input tuples
    for width in range(1, 5):
        names = [f"b{j}" for j in range(width)]
        e_or = or_(*names)
        e_and = and_(*names)
        for bits in product((0.0, 1.0), repeat=width):
            vals = dict(zip(names, bits))
            bad += evaluate(e_or, vals) != float(any(bits))
            bad += evaluate(e_and, vals) != float(all(bits))
    bad += evaluate(lnot("b"), {"b": 1.0}) != 0.0
    # base-c increment for c <= 3, k <= 4: full cycles
    for c in (2, 3):
        for k in (1, 2, 3, 4):
            digits = [f"d{j}" for j in range(k)]
            exprs = base_c_increment(c, k, digits)
            val = [0] * k
            for step in range(c**k + 3):
                vals = {f"d{j}": float(val[j]) for j in range(k)}
                val = [int(evaluate(e, vals)) for e in exprs]
                want = (step + 1) % c**k
                bad += sum(dv * c**j for j, dv in enumerate(val)) != want
    # exponential on binary input
    for alpha in (-1.0, -0.25, 0.0, 0.4, 1.0):
        e = exp_binary(alpha, "x")
        bad += evaluate(e, {"x": 0.0}) != 1.0
        bad += evaluate(e, {"x": 1.0}) != math.exp(alpha)
    report(9, bad == 0, f"transition library exact on exhaustive domains ({bad} bad)")


def test_criterion_10_hidden_sufficiency_scrubbing():
    start = time.monotonic()
    from ntpboost.construct.components import f1_part, f2_part, g_part
    from ntpboost.construct.enumerator import enumerator_part
    from on_scaffold import alone

    rng = rng_for(71_001)
    n, k = 4, 2
    p = random_text(B2, n, rng)
    qt = random_text(B2, n, rng)
    d = random_prefix_window_distinguisher(B2, n, k, rng)
    res = boost_text(p, qt, d)
    q = lm_to_rnn(text_to_lm(qt), 2)
    D = distinguisher_to_rnn(res.applied, B2, 2)
    at = (k, res.offset, max(q.rnn_time, D.rnn_time) + 4)
    graphs = {
        "model": q,
        "distinguisher": D,
        "enumerator": alone(lambda sc: enumerator_part(q, sc, "u."), *at)[0],
        "f1": alone(lambda sc: f1_part(q, sc), *at)[0],
        "f2": alone(lambda sc: f2_part(D, sc, res.alpha), *at)[0],
        "g": alone(g_part, *at)[0],
        "boosted": build_boosted_rnn(q, D, k, res.alpha, res.offset, 2)[0],
        "simple": build_boosted_rnn_simple(q, D, k, res.alpha, res.offset, 2),
    }
    scrub_rng = rng_for(71_999)
    failures = []
    for name, graph in graphs.items():
        rep = verify_hidden_sufficiency(graph, trials=20, rng=scrub_rng)
        if not rep.ok:
            failures.append((name, rep.first_failure()))
    elapsed = time.monotonic() - start
    report(
        10,
        not failures,
        f"scrubbing held on {len(graphs)} constructed circuits x 20 random "
        f"streams (failures: {failures}), {elapsed:.1f}s",
    )
