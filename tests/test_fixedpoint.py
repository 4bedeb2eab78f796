"""Quantizer, error-propagation bounds, and the quantized boosted build."""

import math
from itertools import product

import numpy as np
import pytest

from ntpboost.boosting import boost_text
from ntpboost.construct import distinguisher_to_rnn, lm_to_rnn
from ntpboost.dist import Alphabet, lm_to_text, next_token_loss, uniform_lm
from ntpboost.distinguishers import constant_distinguisher
from ntpboost.errors import PreconditionError
from ntpboost.fixedpoint import (
    FixedPointFormat,
    boosted_lower_bound_check,
    build_boosted_rnn_quantized,
    check_quantized_boost_preconditions,
    fraction_error_bound,
    generalized_loss,
    minimal_fraction_bits,
    product_error_bound,
    quantize,
    quantized_loss_gap,
    quantized_run,
)
from ntpboost.instances import (
    dyadic_lm,
    random_prefix_window_distinguisher,
    random_text,
    rng_for,
)
from ntpboost.rnn.engine import compile_graph, run
from full_trace import full_run

B2 = Alphabet(2)


class TestQuantizer:
    def test_paper_examples(self):
        fmt = FixedPointFormat(3, 2)
        assert quantize(5.8, fmt) == 5.75
        assert quantize(9.1, fmt) == 8.0  # integer saturation, fraction floors

    def test_on_grid_fixed_point(self):
        fmt = FixedPointFormat(4, 5)
        for x in (0.0, 0.5, 3.15625, -2.25, 15.96875):
            assert quantize(x, fmt) == x
            assert quantize(quantize(x, fmt), fmt) == quantize(x, fmt)

    def test_error_below_saturation(self):
        rng = rng_for(701)
        fmt = FixedPointFormat(3, 8)
        for x in rng.uniform(0, 8, size=300):
            assert 0 <= x - quantize(x, fmt) <= 2.0**-8

    def test_sign_carried(self):
        fmt = FixedPointFormat(3, 2)
        assert quantize(-5.8, fmt) == -5.75


class TestErrorBounds:
    def test_product_bound_values(self):
        assert product_error_bound(1, 0.25) == 0.5
        with pytest.raises(PreconditionError):
            product_error_bound(4, 0.3)  # delta >= 1/m

    def test_product_bound_fuzz(self):
        rng = rng_for(703)
        for _ in range(10_000):
            m = int(rng.integers(1, 9))
            delta = float(rng.uniform(1e-6, 1.0 / m * 0.999))
            x = rng.uniform(0, 1, size=m)
            y = np.clip(x + rng.uniform(-delta, delta, size=m), 0.0, 1.0)
            gap = abs(np.prod(x) - np.prod(y))
            assert gap <= product_error_bound(m, delta) + 1e-15

    def test_fraction_bound_equality_case(self):
        got = fraction_error_bound(1.0, 1.0, 0.1, 1.0)
        assert abs(got - (1.0 + 2 * 0.1 / 0.9)) < 1e-15
        assert (1.0 + 0.1) / (1.0 - 0.1) <= got + 1e-12

    def test_fraction_bound_fuzz(self):
        rng = rng_for(709)
        for _ in range(10_000):
            y = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(0.0, y))
            if x == 0.0:
                x = y / 2
            ell = float(rng.uniform(0.01, y))
            delta = float(rng.uniform(1e-6, ell * 0.999))
            lhs = (x + delta) / (y - delta)
            assert lhs <= fraction_error_bound(x, y, delta, ell) + 1e-12

    def test_fraction_bound_small_delta_limit(self):
        x, y, ell = 0.3, 0.6, 0.5
        assert abs(fraction_error_bound(x, y, 1e-12, ell) - x / y) < 1e-9

    def test_fraction_bound_preconditions(self):
        with pytest.raises(PreconditionError):
            fraction_error_bound(0.8, 0.5, 0.1, 0.4)  # y < x

    @pytest.mark.parametrize("bound", ["product_error_bound", "fraction_error_bound"])
    def test_verify_fuzz_catches_a_bound_that_is_too_tight(self, monkeypatch, bound):
        from ntpboost import verify

        monkeypatch.setattr(verify, bound, lambda *args: 0.0)
        ok, detail = verify.check_error_bounds()
        count, word = detail.split()
        assert (bool(ok), word) == (False, "violations")
        assert int(count) > 0


class TestDyadicModels:
    def test_rows_on_the_grid_above_the_floor(self):
        lm = dyadic_lm(B2, 3, rng_for(701), frac_bits=4, min_conditional=0.3)
        for rows in lm.levels:
            assert (rows * 16 == np.round(rows * 16)).all()
            assert (rows >= 0.3).all() and (rows.sum(axis=1) == 1.0).all()
        # a floor of exactly 1/|Sigma| leaves one row: the uniform one
        half = dyadic_lm(B2, 2, rng_for(701), frac_bits=2, min_conditional=0.5)
        assert all((rows == 0.5).all() for rows in half.levels)

    def test_a_floor_above_one_over_the_alphabet_is_refused(self):
        # ceil(0.9 / 0.25) = 4 ticks of 0.25 per token: the rows would sum to 2
        with pytest.raises(PreconditionError, match="min_conditional 0.9"):
            dyadic_lm(Alphabet(2), 2, rng_for(1), 2, 0.9)


class TestBoostedLowerBound:
    def test_zero_distinguisher(self):
        rng = rng_for(719)
        lm = dyadic_lm(B2, 3, rng, frac_bits=8, min_conditional=0.125)
        q = lm_to_text(lm)
        d = constant_distinguisher(2, 3, 0)
        assert boosted_lower_bound_check(q, d, 0.0, 0, 0.125)

    def test_uniform_model_any_distinguisher(self):
        rng = rng_for(727)
        q = lm_to_text(uniform_lm(B2, 4))
        d = random_prefix_window_distinguisher(B2, 4, 2, rng)
        # e^-1 / 2 >= (1/2)/3: uniform q with alpha <= 1 clears the bound
        assert boosted_lower_bound_check(q, d, 1.0, 1, 0.5)

    def test_random_instances(self):
        rng = rng_for(733)
        for seed in range(5):
            lm = dyadic_lm(B2, 4, rng, frac_bits=10, min_conditional=1 / 8)
            q = lm_to_text(lm)
            d = random_prefix_window_distinguisher(B2, 4, 2, rng)
            alpha = float(rng.uniform(0.0, 1.0))
            assert boosted_lower_bound_check(q, d, alpha, int(rng.integers(0, 2)), 1 / 8)

    def test_alpha_above_one_rejected(self):
        q = lm_to_text(uniform_lm(B2, 3))
        with pytest.raises(PreconditionError):
            boosted_lower_bound_check(q, constant_distinguisher(1, 3), 1.5, 0, 0.5)


class TestQuantizedLossGap:
    def test_identical_models(self):
        rng = rng_for(739)
        p = random_text(B2, 3, rng)
        lm = dyadic_lm(B2, 3, rng, frac_bits=8, min_conditional=0.125)
        bound = quantized_loss_gap(p, lm, lambda s, y: lm.prob(y, s), 1e-3, 0.125)
        assert bound == 3 * 1e-3 / (0.125 - 1e-3)

    def test_bound_arithmetic(self):
        # delta = ell/2 makes the bound exactly n
        rng = rng_for(743)
        p = random_text(B2, 4, rng)
        lm = dyadic_lm(B2, 4, rng, frac_bits=8, min_conditional=0.25)
        bound = quantized_loss_gap(
            p, lm, lambda s, y: max(lm.prob(y, s) - 0.124, 0.001), 0.125, 0.25
        )
        assert abs(bound - 4.0) < 1e-12

    def test_gap_never_exceeds_bound_random_quantized(self):
        rng = rng_for(751)
        for seed in range(10):
            n = int(rng.integers(2, 5))
            p = random_text(B2, n, rng)
            lm = dyadic_lm(B2, n, rng, frac_bits=12, min_conditional=1 / 8)
            delta = 2.0**-9
            fmt = FixedPointFormat(2, 9)

            def qt(s, y):
                return quantize(lm.prob(y, s), fmt)

            bound = quantized_loss_gap(p, lm, qt, delta, 1 / 8)
            gap = p.n * (
                generalized_loss(p, lambda s, y: qt(s, y))
                - next_token_loss(p, lm)
            )
            assert gap <= bound + 1e-12


class TestQuantizedRun:
    def test_fine_grid_matches_exact_run(self):
        rng = rng_for(757)
        lm = dyadic_lm(B2, 3, rng, frac_bits=6, min_conditional=0.125)
        g = lm_to_rnn(lm, 2)
        stream = np.array([1, 0, 1])
        exact = full_run(g, stream)
        # every value in this circuit is a counter, token, or dyadic
        # conditional: a 40-bit grid holds them exactly
        snapped = full_run(g, stream, fixed_point=(20, 40))
        assert np.array_equal(exact.values, snapped.values)
        assert snapped.saturation_events == 0
        quantized = quantized_run(g, FixedPointFormat(20, 40), stream)
        assert np.array_equal(quantized.values, run(g, stream).values)
        assert quantized.saturation_events == 0

    def test_compiled_program_is_passed_through(self):
        rng = rng_for(757)
        g = lm_to_rnn(dyadic_lm(B2, 3, rng, frac_bits=6, min_conditional=0.125), 2)
        docs = np.array(list(product(range(2), repeat=3))).T
        fmt = FixedPointFormat(1, 3)  # coarse: snapping and saturation both show
        alone = quantized_run(g, fmt, docs)
        shared = quantized_run(g, fmt, docs, program=compile_graph(g))
        assert shared.values.tobytes() == alone.values.tobytes()
        assert shared.saturation_events == alone.saturation_events > 0

    def test_verify_compiles_the_quantized_boost_once(self, monkeypatch):
        from ntpboost import verify
        from ntpboost.rnn import engine

        graphs = []

        def counted(graph):
            graphs.append(graph)
            return compile_graph(graph)

        monkeypatch.setattr(verify, "compile_graph", counted)
        monkeypatch.setattr(engine, "compile_graph", counted)
        ok, detail = verify.check_quantized_boost()
        assert ok, detail
        assert len(graphs) == 1

    def test_product_chain_error_within_product_bound(self):
        # chain of m quantized multiplications of [0,1] factors
        rng = rng_for(761)
        m, bits = 6, 12
        fmt = FixedPointFormat(2, bits)
        vals = rng.uniform(0.3, 1.0, size=m)
        exact = np.prod(vals)
        acc = 1.0
        for v in vals:
            acc = quantize(acc * quantize(v, fmt), fmt)
        delta = 2.0**-bits
        assert abs(acc - exact) <= product_error_bound(2 * m, delta)


def quantized_instance(seed, n=4, k=2, ell=1 / 8):
    rng = rng_for(seed)
    p = random_text(B2, n, rng)
    lm = dyadic_lm(B2, n, rng, frac_bits=14, min_conditional=ell)
    qt = lm_to_text(lm)
    d = random_prefix_window_distinguisher(B2, n, k, rng)
    res = boost_text(p, qt, d)
    return p, qt, lm, res


class TestQuantizedBoostBuild:
    def test_precondition_failures_name_inequality(self):
        fmt_d = FixedPointFormat(2, 8)
        with pytest.raises(PreconditionError, match="integer bits"):
            check_quantized_boost_preconditions(2, 0.1, 1 / 8, 2, FixedPointFormat(3, 40), fmt_d, 2)
        with pytest.raises(PreconditionError, match="fraction bits"):
            check_quantized_boost_preconditions(2, 0.1, 1 / 8, 2, FixedPointFormat(20, 4), fmt_d, 2)
        with pytest.raises(PreconditionError, match="grid"):
            check_quantized_boost_preconditions(2, 0.1, 1 / 8, 2, FixedPointFormat(20, 9), fmt_d, 2)

    def test_integer_bit_accounting_example(self):
        # b_I = 20 and T_Q = 70 gives 20 + ceil(log2 70) = 27
        p, qt, lm, res = quantized_instance(769)
        if res.alpha == 0:
            pytest.skip("degenerate draw")
        q = lm_to_rnn(lm, 2)
        D = distinguisher_to_rnn(res.applied, B2, 2)
        bf = max(
            minimal_fraction_bits(2, res.alpha, 1 / 8), 14
        )
        out = build_boosted_rnn_quantized(
            q,
            D,
            2,
            res.alpha,
            res.offset,
            2,
            FixedPointFormat(20, bf),
            FixedPointFormat(2, 8),
            1 / 8,
        )
        assert out.format.integer_bits == 20 + math.ceil(math.log2(q.rnn_time))
        assert out.format.fraction_bits == bf
        assert 20 + math.ceil(math.log2(70)) == 27

    def test_end_to_end_certificates(self):
        # measured error, floor, and loss drop within the certified bounds
        ell = 1 / 8
        n, k = 4, 2
        for seed in (773, 787):
            p, qt, lm, res = quantized_instance(seed, n, k, ell)
            if res.alpha == 0:
                continue
            q = lm_to_rnn(lm, 2)
            D = distinguisher_to_rnn(res.applied, B2, 2)
            bf = max(minimal_fraction_bits(k, res.alpha, ell), 14)
            out = build_boosted_rnn_quantized(
                q, D, k, res.alpha, res.offset, 2,
                FixedPointFormat(20, bf), FixedPointFormat(2, 8), ell,
            )
            docs = np.array(list(product(range(2), repeat=n))).T
            tr_q = quantized_run(out.graph, out.format, docs)
            assert tr_q.saturation_events == 0
            tr_x = run(out.graph, docs)
            qcond = {}
            for col in range(docs.shape[1]):
                doc = tuple(int(x) for x in docs.T[col])
                for i in range(1, n + 1):
                    t = i * out.graph.rnn_time
                    qcond[(doc[: i - 1], doc[i - 1])] = float(
                        tr_q.value("out", t)[col]
                    )
                    exact = float(tr_x.value("out", t)[col])
                    err = abs(qcond[(doc[: i - 1], doc[i - 1])] - exact)
                    assert err <= out.max_output_error
            assert min(qcond.values()) >= out.prob_lower_bound
            loss_before = next_token_loss(p, lm)
            loss_after = generalized_loss(p, lambda s, y: qcond[(s, y)])
            assert loss_after - loss_before <= -out.loss_drop_certificate + 1e-9


class TestAlphaZeroEdge:
    def test_zero_distinguisher_quantized_build(self):
        # nothing to boost: the circuit reproduces q and the certificates
        # are vacuous (drop 0)
        rng = rng_for(797)
        ell = 1 / 8
        lm = dyadic_lm(B2, 3, rng, frac_bits=12, min_conditional=ell)
        q = lm_to_rnn(lm, 2)
        D = distinguisher_to_rnn(constant_distinguisher(1, 3, 0), B2, 2)
        out = build_boosted_rnn_quantized(
            q, D, 1, 0.0, 0, 2, FixedPointFormat(20, 14), FixedPointFormat(2, 8), ell
        )
        assert out.loss_drop_certificate == 0.0
        docs = np.array(list(product(range(2), repeat=3))).T
        tq = quantized_run(out.graph, out.format, docs)
        for col in range(docs.shape[1]):
            doc = tuple(int(x) for x in docs.T[col])
            for i in range(1, 4):
                got = float(tq.value("out", i * out.graph.rnn_time)[col])
                want = lm.prob(doc[i - 1], doc[: i - 1])
                assert abs(got - want) <= 2.0 ** -14 * 4
