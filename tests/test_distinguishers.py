"""Distinguisher advantage, offset decomposition, Pinsker-type bound."""

import math
from itertools import product

import numpy as np
import pytest

from ntpboost.dist import Alphabet, TextDistribution, point_mass_text
from ntpboost.distinguishers import (
    Distinguisher,
    advantage,
    anchor_of,
    anchors,
    block_weights,
    complement,
    constant_distinguisher,
    flat,
    max_advantage_oracle,
    offset_decomposition,
    pinsker_bound,
    position_gaps,
    table_distinguisher,
    table_key_fault,
    table_shapes,
)
from ntpboost.errors import PreconditionError, SizingError, ValidationError
from ntpboost.families import (
    Family,
    one_prefix_table_family,
    product_window_family,
    single_position_window_subsets,
    trivial_family,
)
from ntpboost.instances import (
    random_prefix_window_distinguisher,
    random_text,
    random_window_table_distinguisher,
    rng_for,
)
from ntpboost.selfboost import best_member

from oracles import (
    advantage_double_enumeration,
    one_prefix_advantages,
    one_prefix_key_gaps,
)
from reference_families import matrix_best, member_matrix
from reference_tables import bit

B2 = Alphabet(2)


class TestDistinguisherBasics:
    @pytest.mark.parametrize(
        "tables",
        [[np.zeros((1, 2))] * 2, [np.zeros((1, 2))] * 3],
        ids=["too-few", "wrong-shape"],
    )
    def test_tabulate_must_give_n_tables_of_their_shapes(self, tables):
        with pytest.raises(ValidationError):
            Distinguisher(1, 3, lambda size: tables).tables(2)

    def test_window_clipping(self):
        # D_i has a column per window x_{i:i+k} clipped at the document end
        d = constant_distinguisher(3, 4)
        assert [t.shape for t in d.tables(2)] == [(1, 8), (2, 8), (4, 4), (8, 2)]

    def test_table_distinguisher_full_keys(self):
        # position 1 with k = 1 reads one token, so a two-token key names no cell
        d = table_distinguisher(1, 2, {(1, (0, 1)): 1}, keyed_on="full")
        with pytest.raises(ValidationError, match="names no cell"):
            d.tables(2)
        d2 = table_distinguisher(1, 2, {(1, (0,)): 1}, keyed_on="full")
        assert d2.tables(2)[0].tolist() == [[1, 0]]
        assert not d2.tables(2)[1].any()


class TestAdvantage:
    def test_zero_distinguisher(self):
        rng = rng_for(73)
        p = random_text(B2, 4, rng)
        q = random_text(B2, 4, rng)
        assert advantage(constant_distinguisher(2, 4), p, q) == 0.0

    def test_equal_distributions(self):
        rng = rng_for(79)
        p = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        assert abs(advantage(d, p, p)) < 1e-14

    def test_matches_double_enumeration_oracle(self):
        rng = rng_for(83)
        n, k = 4, 2
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        expected = advantage_double_enumeration(d.tables(2), p.probs, q.probs, 2, n, k)
        assert abs(advantage(d, p, q) - expected) < 1e-12

    def test_oracle_agreement_with_zero_mass_prefixes(self):
        rng = rng_for(89)
        n, k = 3, 1
        p = random_text(B2, n, rng)
        q = point_mass_text(B2, n, (0, 1, 0))  # many zero-marginal prefixes
        d = random_window_table_distinguisher(B2, n, k, rng)
        expected = advantage_double_enumeration(d.tables(2), p.probs, q.probs, 2, n, k)
        assert abs(advantage(d, p, q) - expected) < 1e-12

    def test_complement_negates(self):
        rng = rng_for(97)
        p = random_text(B2, 4, rng)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 2, rng)
        assert advantage(d, p, q) == -advantage(complement(d), p, q)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(PreconditionError):
            constant_distinguisher(5, 4)


class TestOffsetDecomposition:
    def test_k1_single_offset(self):
        rng = rng_for(101)
        p = random_text(B2, 4, rng)
        q = random_text(B2, 4, rng)
        d = random_window_table_distinguisher(B2, 4, 1, rng)
        rep = offset_decomposition(d, p, q)
        assert len(rep.offsets) == 1
        j, w, a = rep.offsets[0]
        assert (j, w) == (0, 4)
        assert abs(a - rep.advantage) < 1e-12

    def test_paper_weights_n5_k2(self):
        assert block_weights(5, 2) == [3, 2]

    def test_weights_sum_to_n(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert sum(block_weights(n, k)) == n

    def test_reconstruction_identity(self):
        rng = rng_for(103)
        for seed in range(5):
            p = random_text(B2, 5, rng)
            q = random_text(B2, 5, rng)
            d = random_window_table_distinguisher(B2, 5, 2, rng)
            rep = offset_decomposition(d, p, q)
            recon = sum(w * a for _, w, a in rep.offsets) / 5
            assert abs(recon - rep.advantage) < 1e-10
            assert abs(rep.advantage - advantage(d, p, q)) < 1e-12

    def test_best_offset_dominates_advantage(self):
        rng = rng_for(107)
        p = random_text(B2, 5, rng)
        q = random_text(B2, 5, rng)
        d = random_window_table_distinguisher(B2, 5, 2, rng)
        rep = offset_decomposition(d, p, q)
        if rep.advantage >= 0:
            best_a = dict((j, a) for j, _, a in rep.offsets)[rep.best_offset]
            assert best_a >= rep.advantage - 1e-12

    def test_anchor_helpers(self):
        assert anchors(1, 5, 2) == [1, 3]
        assert anchors(0, 4, 2) == [0, 2]
        assert anchor_of(1, 0, 2) == 0
        assert anchor_of(2, 0, 2) == 0
        assert anchor_of(3, 0, 2) == 2
        assert anchor_of(4, 1, 2) == 3  # position in I maps to the previous anchor? no: 4 > 3
        assert anchor_of(3, 1, 2) == 1
        with pytest.raises(PreconditionError):
            anchor_of(1, 1, 2)


class TestPinsker:
    def test_equal_distributions(self):
        rng = rng_for(109)
        p = random_text(B2, 4, rng)
        assert pinsker_bound(p, p, 2) == 0.0

    def test_exact_arithmetic_case(self):
        # if KL were exactly 2n/k the bound is 1
        assert abs(math.sqrt(2 / (2 * 4) * (2 * 4 / 2)) - 1.0) < 1e-15

    def test_every_distinguisher_bounded(self):
        rng = rng_for(113)
        n = 4
        for k in (1, 2):
            for _ in range(5):
                p = random_text(B2, n, rng)
                q = random_text(B2, n, rng)
                bound = pinsker_bound(p, q, k)
                d = random_prefix_window_distinguisher(B2, n, k, rng)
                assert abs(advantage(d, p, q)) <= bound + 1e-12
                _, best = best_member(product_window_family(B2, n, k), p, q)
                assert abs(best) <= bound + 1e-12


class TestMaxAdvantageOracle:
    def test_trivial_family(self):
        rng = rng_for(127)
        p = random_text(B2, 3, rng)
        q = random_text(B2, 3, rng)
        d, val = max_advantage_oracle(p, q, [constant_distinguisher(1, 3)])
        assert val == 0.0

    def test_equal_distributions_zero(self):
        rng = rng_for(131)
        p = random_text(B2, 3, rng)
        fam = single_position_window_subsets(B2, 3, 1, position=2)
        _, val = max_advantage_oracle(p, p, fam)
        assert val < 1e-14

    def test_decomposed_max_matches_product_family(self):
        # closed-form search vs exhaustive product-family enumeration
        rng = rng_for(137)
        n = 3
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        for k in (1, 2):
            fam = product_window_family(B2, n, k)
            _, val = max_advantage_oracle(p, q, fam)
            assert abs(val - abs(best_member(fam, p, q)[1])) < 1e-12

    def test_single_position_subset_enumeration_vs_tv_form(self):
        # best single-position subset advantage = TV-style positive part
        rng = rng_for(139)
        n, k = 4, 1
        p = random_text(B2, n, rng)
        q = random_text(B2, n, rng)
        # per-position advantages already carry the 1/n factor, so the
        # product-family extreme is the sum of per-position extremes
        best = sum(
            max(
                advantage(d, p, q)
                for d in single_position_window_subsets(B2, n, k, position=i)
            )
            for i in range(1, n + 1)
        )
        worst = sum(
            min(
                advantage(d, p, q)
                for d in single_position_window_subsets(B2, n, k, position=i)
            )
            for i in range(1, n + 1)
        )
        expected = max(best, -worst)
        _, val = best_member(product_window_family(B2, n, k), p, q)
        assert abs(abs(val) - expected) < 1e-12

    def test_family_cap(self):
        with pytest.raises(SizingError):
            single_position_window_subsets(Alphabet(2), 40, 5, position=1)


class TestOnePrefixFamily:
    def test_size(self):
        fam = one_prefix_table_family(B2, 3, 1)
        assert len(fam) == 2 ** (2 * 2)

    def test_family_is_one_read_only_key_map(self):
        fam = one_prefix_table_family(Alphabet(3), 3, 1)
        cells = sum(r * c for r, c in table_shapes(1, 3, 3))
        assert fam.keys == 9 and len(fam) == 2**9
        assert fam.cell_keys.shape == (cells,) and fam.cell_keys.dtype == np.int64
        assert not fam.cell_keys.flags.writeable
        members, bits = list(fam), member_matrix(fam)
        assert len(members) == len(fam)
        for j in (0, 1, 100, len(fam) - 1):
            assert np.array_equal(flat(members[j].tables(3)), bits[j])
        for j in (len(fam), -1):
            with pytest.raises(IndexError):
                fam[j]

    def test_family_respects_enumeration_cap(self, monkeypatch):
        # each member's tables stay under the cap, as Distinguisher.tables does
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", "8")
        with pytest.raises(SizingError):
            one_prefix_table_family(B2, 3, 1)

    @pytest.mark.parametrize(
        "cell_keys",
        [np.full(6, 2), np.full(6, -2), np.zeros(5, int), np.zeros((2, 6), int),
         np.zeros(6)],
        ids=["not-a-key", "below-minus-one", "cells", "two-dimensional", "not-integers"],
    )
    def test_family_rejects_bad_cell_keys(self, cell_keys):
        with pytest.raises(ValidationError):
            Family(1, 2, 2, 2, cell_keys)


def _lex(tokens, size):
    return sum(t * size ** (len(tokens) - 1 - j) for j, t in enumerate(tokens))


def _zero_prefix_text(alphabet, n, rng):
    """Random text with the whole block under one random prefix set to 0."""
    probs = rng.random(alphabet.size**n)
    length = int(rng.integers(1, n + 1))
    block = alphabet.size ** (n - length)
    start = int(rng.integers(0, alphabet.size**length)) * block
    probs[start : start + block] = 0.0
    return TextDistribution(alphabet, n, probs / probs.sum())


class TestDenseTables:
    @pytest.mark.parametrize("default", [0, 1])
    @pytest.mark.parametrize("keyed_on", ["full", "window", "prev_window"])
    def test_tables_match_reference(self, keyed_on, default):
        rng = rng_for(161)
        # (2, 6, 2) is the benchmark's sweep shape
        for size, n, k in [(2, 4, 2), (3, 3, 3), (3, 3, 1), (2, 6, 2)]:
            entries = {}
            for i in range(1, n + 1):
                for x in product(range(size), repeat=i - 1 + min(k, n - i + 1)):
                    prev = x[i - 2] if i > 1 else 0
                    key = {"full": (i, x), "window": (i, x[i - 1 :]),
                           "prev_window": (i, prev, x[i - 1 :])}[keyed_on]
                    if rng.random() < 0.5:
                        entries[key] = int(rng.integers(0, 2))
            assert set(entries.values()) == {0, 1}
            tables = table_distinguisher(k, n, entries, default, keyed_on).tables(size)
            assert [t.shape for t in tables] == table_shapes(k, n, size)
            for i, table in enumerate(tables, 1):
                joints = product(range(size), repeat=i - 1 + min(k, n - i + 1))
                want = [
                    bit(keyed_on, entries, default, i, x[: i - 1], x[i - 1 :])
                    for x in joints
                ]
                assert table.ravel().tolist() == want
                assert not table.flags.writeable

    @pytest.mark.parametrize(
        "keyed_on,key",
        [
            ("full", (1, (0, 1))),  # position 1 with k = 1 reads one token
            ("full", (4, (0, 0, 0))),  # position outside [1, 3]
            ("window", (0, (0,))),
            ("window", (3, (0, 1))),  # position 3's window is clipped to one token
            ("window", (2, (2,))),  # token outside the alphabet
            ("prev_window", (1, 1, (0,))),  # position 1 has no previous token
            ("prev_window", (2, 2, (0,))),  # previous token outside the alphabet
            ("prev_window", (2, (0,))),  # no previous token in the key
        ],
    )
    def test_unreadable_key_rejected(self, keyed_on, key):
        d = table_distinguisher(1, 3, {key: 1}, keyed_on=keyed_on)
        with pytest.raises(ValidationError, match="names no cell"):
            d.tables(2)

    @pytest.mark.parametrize(
        "keyed_on,key,fault",
        [
            ("full", (1, (0, 1)), "key length 2 != |x_(:i+k)| = 1"),
            ("full", (4, (0, 0, 0)), "position 4 outside [1, 3]"),
            ("full", (2, (0, 2)), "token outside alphabet"),
            ("window", (0, (0,)), "position 0 outside [1, 3]"),
            ("window", (2, (0, 1)), "key length 2 != |x_(i:i+k)| = 1"),
            ("window", (1, 0, (0,)), "a window key has 2 parts, not 3"),
            ("prev_window", (1, 1, (0,)), "previous token 1 at position 1, which has none"),
            ("prev_window", (2, 2, (0,)), "token outside alphabet"),
            ("prev_window", (2, (0,)), "a prev_window key has 3 parts, not 2"),
        ],
    )
    def test_each_key_fault_is_named(self, keyed_on, key, fault):
        assert table_key_fault(key, 1, 3, 2, keyed_on) == fault
        d = table_distinguisher(1, 3, {key: 1}, keyed_on=keyed_on)
        with pytest.raises(ValidationError) as err:
            d.tables(2)
        assert str(err.value) == f"table key {key!r} names no cell: {fault}"

    def test_tables_cached_per_size(self):
        d = constant_distinguisher(1, 3, 1)
        assert d.tables(2) is d.tables(2)
        assert d.tables(3)[2].shape == (9, 3)

    def test_non_bit_table_rejected(self):
        twos = [np.full(shape, 2) for shape in table_shapes(1, 3, 2)]
        d = Distinguisher(1, 3, lambda size: twos)
        with pytest.raises(ValidationError, match="not a bit"):
            d.tables(2)

    def test_tables_respect_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", "8")
        with pytest.raises(SizingError):
            constant_distinguisher(2, 3).tables(2)

    def test_complement_tables(self):
        rng = rng_for(163)
        d = random_prefix_window_distinguisher(Alphabet(3), 3, 2, rng)
        for t, c in zip(d.tables(3), complement(d).tables(3)):
            assert np.array_equal(c, 1 - t)

    def test_family_tables_tied_to_their_alphabet(self):
        d = one_prefix_table_family(B2, 3, 1)[5]
        with pytest.raises(PreconditionError):
            d.tables(3)

    def test_one_prefix_members_follow_their_bits(self):
        for size, n, k in [(2, 4, 2), (3, 3, 1)]:
            fam = one_prefix_table_family(Alphabet(size), n, k)
            for bits in (0, 1, 6, len(fam) // 3, len(fam) - 1):
                for i, table in enumerate(fam[bits].tables(size), 1):
                    kc = min(k, n - i + 1)
                    for x in product(range(size), repeat=i - 1 + kc):
                        prev = x[i - 2] if i > 1 else 0
                        w = x[i - 1 :] + (0,) * (k - kc)
                        key = prev * size**k + _lex(w, size)
                        row, col = _lex(x[: i - 1], size), _lex(x[i - 1 :], size)
                        assert table[row, col] == bits >> key & 1

    def test_window_families_follow_their_bits(self):
        size, n, k = 2, 3, 1
        fam = product_window_family(B2, n, k)
        shapes = table_shapes(k, n, size)
        for m, d in enumerate(fam):
            rest = m
            for i in range(n, 0, -1):  # position 1 is most significant
                rows, cols = shapes[i - 1]
                bits = rest % 2**cols
                rest //= 2**cols
                want = [[bits >> w & 1 for w in range(cols)]] * rows
                assert d.tables(size)[i - 1].tolist() == want
        for m, d in enumerate(single_position_window_subsets(B2, n, 2, position=2)):
            tables = d.tables(size)
            assert tables[1].tolist() == [[m >> w & 1 for w in range(4)]] * 2
            assert not tables[0].any() and not tables[2].any()


class TestAdvantageDifferential:
    """Dense-table advantage, offset terms and family search vs enumeration."""

    CASES = [(2, 3, 3), (2, 4, 4), (2, 4, 2), (3, 2, 2), (3, 3, 3), (3, 3, 1)]

    @pytest.mark.parametrize("size,n,k", CASES)
    def test_against_double_enumeration(self, size, n, k):
        alphabet = Alphabet(size)
        rng = rng_for(5300 + 10 * size + n + k)
        for _ in range(3):
            p = _zero_prefix_text(alphabet, n, rng)
            q = _zero_prefix_text(alphabet, n, rng)
            family = [
                random_prefix_window_distinguisher(alphabet, n, k, rng),
                random_window_table_distinguisher(alphabet, n, k, rng),
                constant_distinguisher(k, n, 1),
            ]
            expected = [
                advantage_double_enumeration(
                    d.tables(size), p.probs, q.probs, size, n, k
                )
                for d in family
            ]
            for d, want in zip(family, expected):
                assert abs(advantage(d, p, q) - want) < 1e-12

            d = family[0]
            tables = d.tables(size)
            terms = []
            for i in range(1, n + 1):
                only_i = [t if j == i else 0 * t for j, t in enumerate(tables, 1)]
                adv = advantage_double_enumeration(only_i, p.probs, q.probs, size, n, k)
                terms.append(n * adv)
            rep = offset_decomposition(d, p, q)
            for j, w, a in rep.offsets:
                assert abs(a - sum(terms[j::k]) / w) < 1e-12

            bits = np.stack([flat(d.tables(size)) for d in family])
            idx, val = matrix_best(bits, flat(position_gaps(p, q, k)))
            val /= n
            assert abs(val - expected[idx]) < 1e-12
            assert abs(val) >= max(abs(e) for e in expected) - 1e-12


class TestFamilySearch:
    """``best_member`` vs per-key gap sums and the materialized search."""

    @pytest.mark.parametrize("size,n,k", [(2, 5, 3), (3, 3, 1), (2, 4, 2)])
    def test_against_per_key_oracle(self, size, n, k):
        alphabet = Alphabet(size)
        rng = rng_for(5400 + 10 * size + n + k)
        fam = one_prefix_table_family(alphabet, n, k)
        for _ in range(2):
            p = _zero_prefix_text(alphabet, n, rng)
            q = _zero_prefix_text(alphabet, n, rng)
            want = one_prefix_advantages(p.probs, q.probs, size, n, k)
            assert len(want) == len(fam)
            idx, val = best_member(fam, p, q)
            # a member and its complement tie up to rounding, so the
            # index itself is not asserted
            assert abs(abs(val) - np.max(np.abs(want))) < 1e-12
            assert abs(want[idx] - val) < 1e-12

    @pytest.mark.parametrize("size,n,k", [(3, 4, 2), (3, 4, 3)])
    def test_beyond_a_member_matrix(self, size, n, k):
        # 2^27 and 2^81 members: only the per-key sums can be enumerated
        alphabet = Alphabet(size)
        rng = rng_for(5500 + 10 * size + n + k)
        fam = one_prefix_table_family(alphabet, n, k)
        assert fam.keys == size ** (k + 1)
        for _ in range(2):
            p = _zero_prefix_text(alphabet, n, rng)
            q = _zero_prefix_text(alphabet, n, rng)
            per_key = one_prefix_key_gaps(p.probs, q.probs, size, n, k)
            idx, val = best_member(fam, p, q)
            extreme = max(per_key[per_key > 0].sum(), -per_key[per_key < 0].sum())
            assert abs(abs(val) - extreme / n) < 1e-12
            held = [j for j in range(fam.keys) if idx >> j & 1]
            assert abs(per_key[held].sum() / n - val) < 1e-12
            assert abs(advantage(fam[idx], p, q) - val) < 1e-12

    @pytest.mark.parametrize(
        "size,build",
        [
            (2, lambda a: one_prefix_table_family(a, 4, 2)),
            (3, lambda a: one_prefix_table_family(a, 3, 1)),
            (2, lambda a: product_window_family(a, 3, 2)),
            (3, lambda a: product_window_family(a, 2, 1)),
            (2, lambda a: single_position_window_subsets(a, 3, 2, position=2)),
            (3, lambda a: single_position_window_subsets(a, 3, 2, position=2)),
            (2, lambda a: trivial_family(a, 3, 2)),
            (3, lambda a: trivial_family(a, 3, 2)),
        ],
        ids=[f"{name}-{size}" for name in ("one-prefix", "product-window",
             "single-position", "trivial") for size in (2, 3)],
    )
    def test_against_member_matrix(self, size, build):
        alphabet = Alphabet(size)
        fam = build(alphabet)
        bits = member_matrix(fam)
        rng = rng_for(5600 + size + fam.keys)
        for _ in range(3):
            p = _zero_prefix_text(alphabet, fam.n, rng)
            q = _zero_prefix_text(alphabet, fam.n, rng)
            gaps = flat(position_gaps(p, q, fam.k))
            _, want = matrix_best(bits, gaps)
            idx, val = best_member(fam, p, q)
            # a member and its complement tie up to rounding, so only the
            # value and the chosen member's own total are compared
            assert abs(abs(val) - abs(want) / fam.n) < 1e-12
            assert abs(bits[idx] @ gaps / fam.n - val) < 1e-12
