"""Boosting operator: KL-drop certificate, ratio-form consistency, components."""

import math
from itertools import product

import numpy as np
import pytest

from ntpboost.boosting import (
    boost_text,
    boosted_next_token,
    components_f_g,
    normalization_Z,
)
from ntpboost.dist import Alphabet, lm_to_text, text_to_lm
from ntpboost.distinguishers import advantage, constant_distinguisher, offset_decomposition
from ntpboost.errors import PreconditionError, ZeroMarginalError
from ntpboost.instances import (
    random_prefix_window_distinguisher,
    random_text,
    random_window_table_distinguisher,
    rng_for,
)

from oracles import boosted_table_blockwise, table_bit

B2 = Alphabet(2)


def random_pair(rng, n):
    return random_text(B2, n, rng), random_text(B2, n, rng)


class TestBoostText:
    def test_zero_distinguisher_is_identity(self):
        rng = rng_for(211)
        p, q = random_pair(rng, 4)
        res = boost_text(p, q, constant_distinguisher(2, 4))
        assert res.alpha == 0.0
        assert res.offset == 0
        assert np.array_equal(res.q_boosted.probs, q.probs)

    def test_whole_document_reweight_k_equals_n(self):
        # k = n, i0* = 0: single block, q'(x) prop q(x) e^{-alpha d_1(x)}
        rng = rng_for(223)
        n = 3
        p, q = random_pair(rng, n)
        d = random_window_table_distinguisher(B2, n, n, rng)
        res = boost_text(p, q, d)
        if res.offset == 0 and res.alpha > 0:
            weights = np.exp(-res.alpha * res.applied.tables(2)[0][0])  # D_1's one row
            expected = q.probs * weights
            expected /= expected.sum()
            assert np.max(np.abs(res.q_boosted.probs - expected)) < 1e-12

    def test_matches_blockwise_oracle(self):
        rng = rng_for(227)
        for n, k in [(4, 2), (5, 2), (4, 3), (3, 1)]:
            p, q = random_pair(rng, n)
            d = random_prefix_window_distinguisher(B2, n, k, rng)
            res = boost_text(p, q, d)
            if res.alpha == 0:
                continue
            expected = boosted_table_blockwise(
                q.probs, res.applied.tables(2), res.alpha, res.offset, 2, n, k
            )
            assert np.max(np.abs(res.q_boosted.probs - expected)) < 1e-12

    def test_kl_drop_certificate(self):
        rng = rng_for(229)
        for trial in range(30):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, 4))
            if k > n:
                continue
            p, q = random_pair(rng, n)
            d = random_window_table_distinguisher(B2, n, k, rng)
            res = boost_text(p, q, d)
            assert (
                res.kl_after
                <= res.kl_before - res.alpha**2 * n / (4 * k) + 1e-9
            )

    def test_negative_advantage_uses_complement(self):
        rng = rng_for(233)
        p, q = random_pair(rng, 4)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        raw = advantage(d, p, q)
        res = boost_text(p, q, d)
        assert res.alpha == abs(raw)
        if raw < 0:
            assert advantage(res.applied, p, q) == -raw

    def test_prefix_preservation(self):
        # q' agrees with q on the first i0* tokens exactly
        rng = rng_for(239)
        for _ in range(10):
            p, q = random_pair(rng, 5)
            d = random_prefix_window_distinguisher(B2, 5, 2, rng)
            res = boost_text(p, q, d)
            if res.offset == 0:
                continue
            for m in range(1, res.offset + 1):
                got = res.q_boosted.prefix_marginals(m)
                want = q.prefix_marginals(m)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_offset_optimality(self):
        rng = rng_for(241)
        p, q = random_pair(rng, 5)
        d = random_window_table_distinguisher(B2, 5, 2, rng)
        res = boost_text(p, q, d)
        if res.alpha > 0:
            rep = offset_decomposition(res.applied, p, q)
            a_best = dict((j, a) for j, _, a in rep.offsets)[res.offset]
            assert a_best >= res.alpha - 1e-12


class TestNormalizationZ:
    def test_zero_distinguisher(self):
        rng = rng_for(251)
        q = random_text(B2, 4, rng)
        assert abs(normalization_Z(q, constant_distinguisher(2, 4), 0.7, (0, 1)) - 1.0) < 1e-12

    def test_constant_one_distinguisher(self):
        rng = rng_for(257)
        q = random_text(B2, 4, rng)
        z = normalization_Z(q, constant_distinguisher(2, 4, 1), 0.7, (0, 1))
        assert abs(z - math.exp(-0.7)) < 1e-12

    def test_matches_enumeration(self):
        rng = rng_for(263)
        q = random_text(B2, 4, rng)
        d = random_prefix_window_distinguisher(B2, 4, 2, rng)
        alpha = 0.4
        s = (1, 0)
        z = normalization_Z(q, d, alpha, s)
        expected = 0.0
        for w in product(range(2), repeat=2):
            num = q.marginal(s + w)
            bit = table_bit(d.tables(2), 3, s + w, 2, 2)
            expected += num / q.marginal(s) * math.exp(-alpha * bit)
        assert abs(z - expected) < 1e-12
        assert math.exp(-alpha) - 1e-12 <= z <= 1 + 1e-12

    def test_zero_marginal_errors(self):
        from ntpboost.dist import point_mass_text

        q = point_mass_text(B2, 4, (0, 0, 0, 0))
        with pytest.raises(ZeroMarginalError):
            normalization_Z(q, constant_distinguisher(2, 4), 0.5, (1, 0))


class TestBoostedNextToken:
    def test_untouched_prefix_positions(self):
        rng = rng_for(269)
        p, q = random_pair(rng, 5)
        d = random_window_table_distinguisher(B2, 5, 3, rng)
        res = boost_text(p, q, d)
        lm_q = text_to_lm(q)
        for m in range(res.offset):
            # position m+1 <= i0*: boosted conditional equals q's
            for s in product(range(2), repeat=m):
                for tok in range(2):
                    got = boosted_next_token(q, res.applied, res.alpha, res.offset, s, tok)
                    assert abs(got - lm_q.prob(tok, s)) < 1e-12

    def test_zero_distinguisher_every_position(self):
        rng = rng_for(271)
        q = random_text(B2, 4, rng)
        d = constant_distinguisher(2, 4)
        lm_q = text_to_lm(q)
        for m in range(4):
            for s in product(range(2), repeat=m):
                for tok in range(2):
                    got = boosted_next_token(q, d, 0.8, 1, s, tok)
                    assert abs(got - lm_q.prob(tok, s)) < 1e-12

    def test_consistency_with_boost_text(self):
        # product of boosted conditionals reconstructs the boosted table
        rng = rng_for(277)
        for n, k in [(4, 2), (5, 3), (6, 2), (4, 1)]:
            p, q = random_pair(rng, n)
            d = random_prefix_window_distinguisher(B2, n, k, rng)
            res = boost_text(p, q, d)
            rebuilt = lm_to_text(res.lm_boosted)
            assert np.max(np.abs(rebuilt.probs - res.q_boosted.probs)) < 1e-9

    def test_rows_normalized(self):
        rng = rng_for(281)
        p, q = random_pair(rng, 5)
        d = random_window_table_distinguisher(B2, 5, 2, rng)
        res = boost_text(p, q, d)
        for lvl in res.lm_boosted.levels:
            assert np.max(np.abs(lvl.sum(axis=1) - 1.0)) < 1e-10


class TestComponents:
    def test_mismatch_prefix_gives_zero_indicators(self):
        rng = rng_for(283)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        # i = 3, i0* = 1 -> anchor 1, r0 = 2: mismatch at the block's first
        # position x_{i0+1} zeroes both indicators
        x = (0, 1, 0, 0)
        s_bad = (1 - x[1], 0)
        f1, f2, g1, g2 = components_f_g(q, d, 0.3, 3, s_bad, x, 1)
        assert (g1, g2) == (0, 0)

    def test_r0_equal_one_g2_always_one(self):
        rng = rng_for(409)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        x = (0, 1, 0, 0)
        for s in product(range(2), repeat=2):
            _, _, _, g2 = components_f_g(q, d, 0.3, 2, s, x, 1)
            assert g2 == 1

    def test_realized_window_gives_ones(self):
        rng = rng_for(293)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        x = (0, 1, 1, 0)
        s_good = (x[1], x[2])
        f1, f2, g1, g2 = components_f_g(q, d, 0.3, 3, s_good, x, 1)
        assert (g1, g2) == (1, 1)
        assert 0.0 <= f1 <= 1.0
        assert math.exp(-0.3) - 1e-12 <= f2 <= 1.0 + 1e-12

    def test_g1_implies_g2(self):
        rng = rng_for(307)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        for s in product(range(2), repeat=2):
            for x in product(range(2), repeat=4):
                for i in (2, 3, 4):
                    f1, f2, g1, g2 = components_f_g(q, d, 0.2, i, s, x, 1)
                    assert g1 in (0, 1) and g2 in (0, 1)
                    if g1:
                        assert g2

    def test_f1_matches_block_conditional(self):
        rng = rng_for(311)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        from ntpboost.dist import block_conditional

        x = (0, 1, 1, 0)
        for s in product(range(2), repeat=2):
            f1, _, _, _ = components_f_g(q, d, 0.2, 3, s, x, 1)
            want = block_conditional(q, x[:1], s)
            assert abs(f1 - want) < 1e-12

    def test_position_inside_prefix_rejected(self):
        rng = rng_for(313)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        with pytest.raises(PreconditionError):
            components_f_g(q, d, 0.2, 1, (0, 0), (0, 0, 0, 0), 1)


class TestBoostingProperties:
    def test_normalization_of_boosted_rows_every_reachable_prefix(self):
        rng = rng_for(317)
        p, q = random_pair(rng, 4)
        d = random_prefix_window_distinguisher(B2, 4, 2, rng)
        res = boost_text(p, q, d)
        for m in range(4):
            for s in product(range(2), repeat=m):
                total = sum(
                    boosted_next_token(q, res.applied, res.alpha, res.offset, s, t)
                    for t in range(2)
                )
                assert abs(total - 1.0) < 1e-10

    def test_drop_matrix_small_instances(self):
        # drop certificate across a seeded matrix (subset of acceptance 1)
        rng = rng_for(331)
        count = 0
        for n in (3, 4, 5, 6):
            for k in (1, 2, 3):
                p, q = random_pair(rng, n)
                d = random_window_table_distinguisher(B2, n, k, rng)
                res = boost_text(p, q, d)
                assert res.kl_after <= res.kl_before - res.guaranteed_drop + 1e-9
                count += 1
        assert count == 12
