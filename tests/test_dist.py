"""Exact-distribution layer: conversions, marginals, divergences, losses."""

import math

import numpy as np
import pytest

from ntpboost.dist import (
    Alphabet,
    DivergenceReport,
    LanguageModel,
    TextDistribution,
    block_conditional,
    block_distribution_completed,
    divergence_report,
    entropy,
    kl,
    lex_index,
    lm_to_text,
    next_token_loss,
    point_mass_text,
    text_to_lm,
    token_strings,
    tv,
    uniform_lm,
    uniform_text,
)
from ntpboost.errors import (
    SizingError,
    SupportError,
    ValidationError,
    ZeroMarginalError,
)
from ntpboost.instances import random_lm, random_text, rng_for

from oracles import (
    conditional_by_sums,
    doc_index,
    docs,
    entropy_direct,
    kl_direct,
    loss_by_document_enumeration,
    marginal_by_suffix_enumeration,
    product_table,
)

B2 = Alphabet(2)
B3 = Alphabet(3)


class TestValidation:
    def test_negative_probs_rejected(self):
        with pytest.raises(ValidationError):
            TextDistribution(B2, 1, np.array([1.5, -0.5]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            TextDistribution(B2, 2, np.full(4, 0.3))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            TextDistribution(B2, 1, np.array([np.nan, 1.0]))

    def test_table_cap(self):
        with pytest.raises(SizingError):
            uniform_text(Alphabet(2), 25)

    def test_lm_rows_must_normalize(self):
        bad = [np.array([[0.6, 0.5]])]
        with pytest.raises(ValidationError):
            LanguageModel(B2, 1, tuple(bad))

    def test_probs_frozen(self):
        t = uniform_text(B2, 2)
        with pytest.raises(ValueError):
            t.probs[0] = 0.5


class TestLexIndex:
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
    def test_matches_enumeration_oracle(self, size, length):
        strings = token_strings(size, length)
        expected = list(docs(size, length))
        assert strings.shape == (length, size**length)
        assert [tuple(col) for col in strings.T.tolist()] == expected
        for j, doc in enumerate(expected):
            assert lex_index(doc, size) == doc_index(doc, size) == j

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_document_inverts_lex_index(self, size, n):
        t = uniform_text(Alphabet(size), n)
        for j in range(size**n):
            doc = t.document(j)
            assert all(type(tok) is int for tok in doc)
            assert lex_index(doc, size) == j
        for doc in docs(size, n):
            assert t.document(lex_index(doc, size)) == doc

    def test_accepts_numpy_integers(self):
        assert lex_index(np.array([1, 0, 1]), 2) == 5
        assert lex_index((np.int8(2), 1), 3) == 7

    @pytest.mark.parametrize(
        "tokens", [(-1,), (2,), (0, 1.5), (0, "1"), (None,), (True,)]
    )
    def test_rejects_tokens_outside_alphabet(self, tokens):
        with pytest.raises(ValidationError):
            lex_index(tokens, 2)

    def test_token_strings_respects_cap(self, monkeypatch):
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", "8")
        assert token_strings(2, 3).shape == (3, 8)
        with pytest.raises(SizingError):
            token_strings(2, 4)

    def test_token_strings_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            token_strings(0, 2)
        with pytest.raises(ValidationError):
            token_strings(2, -1)


class TestIndexValidation:
    """Every string-to-index path raises ValidationError on a bad token."""

    lm = random_lm(B2, 3, rng_for(71))
    t = random_text(B2, 3, rng_for(73))

    def test_row_negative_token(self):
        with pytest.raises(ValidationError):
            self.lm.row((1, -1))

    def test_prob_negative_token(self):
        with pytest.raises(ValidationError):
            self.lm.prob(-1, (0,))

    def test_prob_token_past_alphabet(self):
        with pytest.raises(ValidationError):
            self.lm.prob(5, (0,))

    def test_point_mass_token_past_alphabet(self):
        with pytest.raises(ValidationError):
            point_mass_text(B2, 2, (0, 2))

    def test_point_mass_wrong_length(self):
        with pytest.raises(ValidationError):
            point_mass_text(B2, 2, (0,))
        with pytest.raises(ValidationError):
            point_mass_text(B2, 2, (0, 1, 1))

    def test_block_distribution_token_past_alphabet(self):
        with pytest.raises(ValidationError):
            block_distribution_completed(self.t, (0, 2), 1)

    def test_document_index_out_of_range(self):
        for idx in (-1, 8, 9, 1.0):
            with pytest.raises(ValidationError):
                self.t.document(idx)

    def test_text_prob_fractional_token(self):
        with pytest.raises(ValidationError):
            self.t.prob((0, 1, 1.5))


class TestConditionals:
    def test_matches_prob_per_document_and_position(self):
        for size, n in [(2, 4), (3, 3)]:
            lm = random_lm(Alphabet(size), n, rng_for(79))
            table = lm.conditionals()
            assert table.shape == (n, size**n)
            for j, doc in enumerate(docs(size, n)):
                for i in range(n):
                    row = lm.levels[i][doc_index(doc[:i], size)]
                    assert table[i, j] == row[doc[i]] == lm.prob(doc[i], doc[:i])


class TestLmToText:
    def test_uniform_conditionals_give_uniform_table(self):
        t = lm_to_text(uniform_lm(B2, 3))
        assert np.allclose(t.probs, 1 / 8, atol=0)

    def test_point_mass_chain(self):
        levels = []
        for i in range(3):
            rows = np.zeros((2**i, 2))
            rows[:, 0] = 1.0
            levels.append(rows)
        t = lm_to_text(LanguageModel(B2, 3, tuple(levels)))
        assert t.prob((0, 0, 0)) == 1.0
        assert t.probs.sum() == 1.0

    def test_random_lm_matches_product_oracle(self):
        rng = rng_for(101)
        lm = random_lm(B2, 4, rng)
        t = lm_to_text(lm)
        expected = product_table(lm.levels, 2, 4)
        assert np.max(np.abs(t.probs - expected)) < 1e-15

    def test_normalization_invariant(self):
        rng = rng_for(7)
        for n in (1, 2, 3, 4):
            lm = random_lm(B3, n, rng)
            assert abs(lm_to_text(lm).probs.sum() - 1.0) < 1e-12


class TestTextToLm:
    def test_uniform_symmetry(self):
        lm = text_to_lm(uniform_text(B2, 2))
        assert lm.prob(0, ()) == 0.5
        assert lm.prob(0, (0,)) == 0.5

    def test_point_mass_conditionals(self):
        lm = text_to_lm(point_mass_text(B2, 2, (0, 1)))
        assert lm.prob(0, ()) == 1.0
        assert lm.prob(1, (0,)) == 1.0

    def test_zero_marginal_prefix_is_uniform(self):
        lm = text_to_lm(point_mass_text(B2, 2, (0, 1)))
        assert lm.prob(0, (1,)) == 0.5

    def test_random_table_matches_ratio_oracle(self):
        rng = rng_for(55)
        t = random_text(B2, 3, rng)
        lm = text_to_lm(t)
        for s in [(), (0,), (1,), (0, 1), (1, 1)]:
            for y in (0, 1):
                expected = conditional_by_sums(t.probs, 2, 3, s, y)
                assert abs(lm.prob(y, s) - expected) < 1e-14

    def test_round_trip(self):
        rng = rng_for(9)
        for n in (2, 3, 4):
            t = random_text(B2, n, rng)
            back = lm_to_text(text_to_lm(t))
            assert np.max(np.abs(back.probs - t.probs)) < 1e-10


class TestMarginals:
    def test_empty_prefix_is_one(self):
        rng = rng_for(3)
        t = random_text(B2, 3, rng)
        assert abs(t.marginal(()) - 1.0) < 1e-12

    def test_point_mass_prefixes(self):
        t = point_mass_text(B2, 2, (0, 1))
        assert t.marginal((0,)) == 1.0
        assert t.marginal((1,)) == 0.0

    def test_all_length2_prefixes_match_enumeration(self):
        rng = rng_for(13)
        t = random_text(B2, 4, rng)
        for a in (0, 1):
            for b in (0, 1):
                expected = marginal_by_suffix_enumeration(t.probs, 2, 4, (a, b))
                assert abs(t.marginal((a, b)) - expected) < 1e-15

    def test_block_conditional(self):
        rng = rng_for(17)
        t = random_text(B2, 4, rng)
        assert block_conditional(t, (0, 1), ()) == 1.0
        u = uniform_text(B2, 4)
        assert abs(block_conditional(u, (1, 0), (1, 1)) - 0.25) < 1e-15
        for s in [(0,), (1, 1)]:
            for z in [(0,), (1, 0)]:
                expected = conditional_by_sums(
                    t.probs, 2, 4, s, z[0]
                ) if len(z) == 1 else None
                got = block_conditional(t, s, z)
                num = marginal_by_suffix_enumeration(t.probs, 2, 4, tuple(s) + tuple(z))
                den = marginal_by_suffix_enumeration(t.probs, 2, 4, s)
                assert abs(got - num / den) < 1e-14

    def test_block_conditional_zero_marginal_errors(self):
        t = point_mass_text(B2, 2, (0, 1))
        with pytest.raises(ZeroMarginalError):
            block_conditional(t, (1,), (0,))


class TestDivergences:
    def test_kl_self_is_zero(self):
        rng = rng_for(23)
        t = random_text(B2, 3, rng)
        assert kl(t, t) == 0.0

    def test_point_vs_uniform(self):
        p = point_mass_text(B2, 3, (1, 0, 1))
        q = uniform_text(B2, 3)
        assert abs(kl(p, q) - 3 * math.log(2)) < 1e-12

    def test_kl_upper_bound_vs_uniform(self):
        # KL(p || q0) <= n log|Sigma| against the uniform q0
        rng = rng_for(29)
        for n in (2, 3, 4):
            p = random_text(B2, n, rng, full_support=False)
            assert kl(p, uniform_text(B2, n)) <= n * math.log(2) + 1e-12

    def test_kl_support_error_names_document(self):
        p = uniform_text(B2, 2)
        q = point_mass_text(B2, 2, (0, 1))
        with pytest.raises(SupportError, match=r"\(0, 0\)"):
            kl(p, q)

    def test_kl_matches_direct_oracle(self):
        rng = rng_for(31)
        p = random_text(B2, 4, rng)
        q = random_text(B2, 4, rng)
        assert abs(kl(p, q) - kl_direct(p.probs, q.probs, 2, 4)) < 1e-13

    def test_entropy(self):
        assert entropy(point_mass_text(B2, 3, (0, 1, 0))) == 0.0
        assert abs(entropy(uniform_text(B2, 2)) - 2 * math.log(2)) < 1e-12
        rng = rng_for(37)
        p = random_text(B3, 3, rng)
        assert abs(entropy(p) - entropy_direct(p.probs, 3, 3)) < 1e-12

    def test_tv(self):
        rng = rng_for(41)
        p = random_text(B2, 3, rng)
        assert tv(p, p) == 0.0
        a = point_mass_text(B2, 2, (0, 0))
        b = point_mass_text(B2, 2, (1, 1))
        assert tv(a, b) == 1.0
        q = random_text(B2, 3, rng)
        assert tv(p, q) <= math.sqrt(kl(p, q) / 2) + 1e-12


class TestNextTokenLoss:
    def test_uniform_model_loss(self):
        rng = rng_for(43)
        p = random_text(B2, 3, rng)
        assert abs(next_token_loss(p, uniform_lm(B2, 3)) - math.log(2)) < 1e-12

    def test_matching_point_masses(self):
        doc = (1, 0)
        p = point_mass_text(B2, 2, doc)
        q = text_to_lm(p)
        assert next_token_loss(p, q) == 0.0

    def test_matches_document_enumeration_oracle(self):
        rng = rng_for(47)
        p = random_text(B2, 4, rng)
        q = random_lm(B2, 4, rng)
        expected = loss_by_document_enumeration(p.probs, q.levels, 2, 4)
        assert abs(next_token_loss(p, q) - expected) < 1e-12

    def test_zero_conditional_on_support_errors(self):
        p = uniform_text(B2, 2)
        levels = [np.array([[1.0, 0.0]]), np.full((2, 2), 0.5)]
        q = LanguageModel(B2, 2, tuple(levels))
        with pytest.raises(SupportError):
            next_token_loss(p, q)


class TestIdentities:
    def test_loss_kl_entropy_identity(self):
        # n*loss - KL = entropy, across random instances n<=6, |Sigma|<=3
        rng = rng_for(53)
        for n, alpha in [(2, B2), (3, B3), (4, B2), (5, B2), (6, B2), (3, B2)]:
            p = random_text(alpha, n, rng)
            q = random_lm(alpha, n, rng)
            lhs = n * next_token_loss(p, q) - kl(p, lm_to_text(q))
            assert abs(lhs - entropy(p)) < 1e-9

    def test_divergence_report_accepts_consistent_values(self):
        rng = rng_for(59)
        p = random_text(B2, 4, rng)
        q = random_lm(B2, 4, rng)
        rep = divergence_report(p, q)
        assert rep.kl >= 0
        assert 0 <= rep.tv <= 1

    def test_divergence_report_rejects_inconsistent(self):
        with pytest.raises(ValidationError):
            DivergenceReport(kl=1.0, entropy_p=0.0, loss_q=0.0, tv=0.0, n=2)


class TestEnumerationCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", "4")
        with pytest.raises(SizingError):
            uniform_text(B2, 3)
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", "1048576")
        uniform_text(B2, 3)
