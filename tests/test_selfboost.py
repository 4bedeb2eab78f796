"""Schedules, j0 sampling, the constructive minimizer, and the bad set."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from ntpboost.dist import Alphabet, uniform_text
from ntpboost.distinguishers import max_advantage_oracle
from ntpboost.errors import PreconditionError
from ntpboost.families import one_prefix_table_family, trivial_family
from ntpboost.instances import random_text, rng_for
from ntpboost.selfboost import (
    SizeState,
    bad_set_bound,
    empirical_bad_set,
    make_schedule,
    minimize_loss_constrained,
    reference_trajectory,
    run_algorithm,
    sample_j0,
    scratch_loss_at,
)

B2 = Alphabet(2)


class TestSchedule:
    def test_paper_size_examples(self):
        s = make_schedule("plain", 2, 1, 3, 0.5, B2)
        assert s.size(10) == 17 * 3 * 100 == 5100
        assert s.hidden(10) == 12 * 3 * 10 == 360

    def test_time_exponent_zero(self):
        s = make_schedule("plain", 2, 1, 7, 0.5, B2)
        assert s.time(1) == 7

    def test_time_is_built_once_per_index(self):
        s = make_schedule("plain", 7, 2, 3, 0.05, B2)
        big = s.time(65546)
        assert big == 64**65545 * 3
        assert s.time(65546) is big
        # the cache is not part of the schedule's value
        assert s == make_schedule("plain", 7, 2, 3, 0.05, B2)
        assert hash(s) == hash(make_schedule("plain", 7, 2, 3, 0.05, B2))

    def test_bits_floor_example(self):
        s = make_schedule("bits", 2, 1, 3, 0.5, B2, b_d=4)
        assert s.floor(3) == 0.99 / (2 * 16) == 0.0309375

    def test_bits_budget_grows(self):
        s = make_schedule("bits", 2, 2, 3, 0.5, B2, b_d=4)
        assert s.bits(2) > s.bits(1) > 0

    def test_plain_has_no_bits(self):
        s = make_schedule("plain", 2, 1, 3, 0.5, B2)
        with pytest.raises(PreconditionError):
            s.bits(1)

    def test_stop_thresholds(self):
        p = make_schedule("plain", 2, 2, 3, 0.4, B2)
        b = make_schedule("bits", 2, 2, 3, 0.4, B2, b_d=4)
        assert p.stop_threshold == 0.4**2 / 8
        assert b.stop_threshold == 0.4**2 / 16


class TestSampleJ0:
    def test_range_at_eps_one_limit(self):
        # k=1, |Sigma|=2, eps -> 1: [4 ln 2, 44 ln 2] -> integers [3, 30]
        s = make_schedule("plain", 1, 1, 1, 0.999999, B2)
        lo, hi = s.j0_range()
        assert (lo, hi) == (3, 30)

    def test_reproducible(self):
        s = make_schedule("plain", 2, 2, 3, 0.35, B2)
        a = sample_j0(s, random.Random(99))
        b = sample_j0(s, random.Random(99))
        assert a == b

    def test_uniformity_chi_square(self):
        s = make_schedule("plain", 1, 1, 1, 0.999999, B2)
        lo, hi = s.j0_range()
        rng = random.Random(7)
        n_draws = 100_000
        counts = Counter(sample_j0(s, rng) for _ in range(n_draws))
        bins = hi - lo + 1
        expected = n_draws / bins
        chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(lo, hi + 1))
        # chi-square with 27 dof: 0.005 < p < 0.995 band roughly [11, 50]
        assert 11 < chi2 < 50, chi2


class TestMinimizer:
    def test_trivial_family_returns_start(self):
        rng = rng_for(801)
        p = random_text(B2, 3, rng)
        s = make_schedule("plain", 2, 1, 3, 0.3, B2)
        res = minimize_loss_constrained(p, s, 10, trivial_family(1, 3))
        assert res.certified and not res.steps
        assert np.array_equal(res.model.probs, uniform_text(B2, 3).probs)

    def test_uniform_target_needs_no_boost(self):
        s = make_schedule("plain", 2, 1, 3, 0.3, B2)
        p = uniform_text(B2, 3)
        fam = one_prefix_table_family(B2, 3, 1)
        res = minimize_loss_constrained(p, s, 10, fam)
        assert res.certified and not res.steps

    def test_terminal_advantage_certified_by_oracle(self):
        rng = rng_for(809)
        n, k, eps = 4, 2, 0.3
        p = random_text(B2, n, rng)
        s = make_schedule("plain", 7, k, 3, eps, B2)
        fam = one_prefix_table_family(B2, n, k)
        res = minimize_loss_constrained(p, s, 40, fam)
        assert res.certified
        _, best = max_advantage_oracle(p, res.model, k, fam)
        assert best <= eps + 1e-9

    def test_each_step_certified_descent(self):
        rng = rng_for(811)
        n, k, eps = 4, 1, 0.2
        p = random_text(B2, n, rng)
        s = make_schedule("plain", 7, k, 3, eps, B2)
        fam = one_prefix_table_family(B2, n, k)
        res = minimize_loss_constrained(p, s, 40, fam)
        for st in res.steps:
            assert st.alpha > eps
            assert st.kl_after <= st.kl_before - st.alpha**2 * n / (4 * k) + 1e-9

    def test_budget_exhaustion_is_explicit(self):
        rng = rng_for(821)
        p = random_text(B2, 4, rng)
        s = make_schedule("plain", 1, 1, 3, 0.05, B2)
        fam = one_prefix_table_family(B2, 4, 1)
        res = minimize_loss_constrained(p, s, 1, fam)  # tiny budget index
        if not res.certified:
            assert res.exhausted
            assert res.final_advantage > 0.05


class TestSizeState:
    def test_boost_accounting_formulas(self):
        s = make_schedule("plain", 5, 2, 3, 0.3, B2)
        st = SizeState(10, 3, 3)
        nxt = st.after_boost(s)
        assert nxt.size == 10 + 3 + 5 + 5 + 7 * 2 + 25
        assert nxt.hidden == 3 + 5 + 6 * 2 + 17
        assert nxt.time == (4 + 1) * 2 * (max(3, 3) + 4)

    def test_budget_growth_absorbs_one_boost(self):
        # N_{i+1} and H_{i+1} always cover a boost from within budget i
        s = make_schedule("plain", 3, 2, 3, 0.3, B2)
        for i in range(1, 12):
            st = SizeState(s.size(i), s.hidden(i), s.time(i))
            assert st.after_boost(s).fits(s, i + 1)


class TestRunAlgorithm:
    def test_two_rounds_when_already_minimal(self):
        p = uniform_text(B2, 3)
        fam = one_prefix_table_family(B2, 3, 1)
        model, trace = run_algorithm(
            "plain", p, fam, 0.3, 1, 3, 7, random.Random(5)
        )
        assert len(trace.rounds) == 2
        assert trace.termination == "loss_plateau"
        assert np.array_equal(model.probs, p.probs)

    def test_round_count_within_stated_bound(self):
        rng = rng_for(839)
        for seed in range(3):
            p = random_text(B2, 4, rng)
            fam = one_prefix_table_family(B2, 4, 1)
            eps, k = 0.3, 1
            model, trace = run_algorithm(
                "plain", p, fam, eps, k, 3, 7, random.Random(seed)
            )
            bound = 4 * k * math.log(2) / eps**2 + 1
            assert len(trace.rounds) <= bound
            assert trace.final_advantage <= eps + 1e-9

    def test_losses_nonincreasing(self):
        rng = rng_for(853)
        p = random_text(B2, 4, rng)
        fam = one_prefix_table_family(B2, 4, 2)
        model, trace = run_algorithm(
            "plain", p, fam, 0.25, 2, 3, 7, random.Random(11)
        )
        losses = trace.losses
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_bits_variant_runs(self):
        rng = rng_for(857)
        p = random_text(B2, 3, rng)
        fam = one_prefix_table_family(B2, 3, 1)
        model, trace = run_algorithm(
            "bits", p, fam, 0.4, 1, 3, 7, random.Random(3), b_d=4
        )
        assert trace.termination == "loss_plateau"
        assert trace.final_advantage <= 0.4 + 1e-9


class TestBadSet:
    def test_bound_arithmetic(self):
        assert abs(bad_set_bound(math.log(2), 0.1) - 6.931471805599453) < 1e-12

    def test_single_big_drop(self):
        # a loss sequence with one drop above threshold has |B| = 1
        losses = [1.0, 0.2, 0.19, 0.19]
        eps = 0.5
        bad = [j for j in range(3) if losses[j + 1] < losses[j] - eps]
        assert len(bad) == 1 <= bad_set_bound(losses[0], eps)

    def test_enumerated_instance_bad_set_within_bound(self):
        rng = rng_for(863)
        n, k, eps = 4, 1, 0.3
        p = random_text(B2, n, rng)
        fam = one_prefix_table_family(B2, n, k)
        s = make_schedule("plain", 7, k, 3, eps, B2)
        traj = reference_trajectory(p, s, fam)
        lo, hi = s.j0_range()
        indices = range(1, hi + 2)
        # drop-based bad set obeys the L1/eps cap
        losses = {j: scratch_loss_at(traj, s, j)[0] for j in indices}
        threshold = s.stop_threshold
        drop_bad = {
            j for j in list(indices)[:-1] if losses[j + 1] < losses[j] - threshold
        }
        l1 = losses[1]
        assert len(drop_bad) <= bad_set_bound(l1, threshold)
        # exhausted indices are exactly the empirically bad ones and every
        # exhausted index is also a drop index
        emp = empirical_bad_set(traj, s, indices)
        assert emp <= drop_bad | {max(indices)}

    def test_outside_bad_set_two_rounds(self):
        rng = rng_for(871)
        n, k, eps = 4, 1, 0.3
        p = random_text(B2, n, rng)
        fam = one_prefix_table_family(B2, n, k)
        s = make_schedule("plain", 7, k, 3, eps, B2)
        traj = reference_trajectory(p, s, fam)
        lo, hi = s.j0_range()
        emp = empirical_bad_set(traj, s, range(lo, hi + 2))
        for seed in range(5):
            r = random.Random(seed)
            model, trace = run_algorithm("plain", p, fam, eps, k, 3, 7, r)
            if trace.j0 + 1 not in emp:
                assert len(trace.rounds) == 2

    def test_monotone_scratch_losses(self):
        rng = rng_for(877)
        p = random_text(B2, 4, rng)
        fam = one_prefix_table_family(B2, 4, 1)
        s = make_schedule("plain", 7, 1, 3, 0.25, B2)
        traj = reference_trajectory(p, s, fam)
        losses = [scratch_loss_at(traj, s, j)[0] for j in range(1, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
