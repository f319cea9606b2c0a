"""Cover optimization: outer sums, critical exponents, duality, Frostman flows."""

import math

import pytest

import invpressure as ip
from conftest import (
    brute_cover_min,
    const_weights,
    cubic_time_scale_root,
    full_shift,
    golden_mean,
    lp_cover_min,
    random_weights,
    single_branch,
    sparse_sft,
    weights,
)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
ALL = ip.SubsetSpec.whole_space()


class TestCoverValue:
    def test_empty_target(self):
        lang = full_shift(2)
        Z = ip.SubsetSpec.cylinders([])
        assert ip.cover_value(lang, const_weights(lang, 0.0), Z, 0.5, 1, 6) == 0.0

    def test_full_2_shift_closed_form(self):
        lang = full_shift(2)
        w0 = const_weights(lang, 0.0)
        for lam in (0.9, 1.4):  # above log 2: the deepest level wins
            assert ip.cover_value(lang, w0, ALL, lam, 1, 12) == pytest.approx(
                2**12 * math.exp(-lam * 12), rel=1e-12
            )
        for lam in (0.2, 0.5):  # below log 2: the shallowest wins
            assert ip.cover_value(lang, w0, ALL, lam, 3, 12) == pytest.approx(
                2**3 * math.exp(-lam * 3), rel=1e-12
            )

    def test_golden_mean_near_critical_flatness(self):
        # at the critical scale the optimum is a renewal antichain of cost ~1,
        # never more than the level-N cover
        lang = golden_mean()
        w0 = const_weights(lang, 0.0)
        val = ip.cover_value(lang, w0, ALL, LOG_GOLDEN, 4, 12)
        level4 = 8 * math.exp(-4 * LOG_GOLDEN)
        assert 0.9 <= val <= 1.1
        assert val <= level4 + 1e-12

    def test_monotone_in_start_depth(self, rng):
        for _ in range(10):
            lang = sparse_sft(rng, 3)
            w = random_weights(rng, lang, -1, 1)
            lam = rng.uniform(-0.5, 1.5)
            vals = [ip.cover_value(lang, w, ALL, lam, N, 6) for N in (1, 2, 3, 4)]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-12 * abs(a)

    def test_word_route_agrees(self, rng):
        for _ in range(10):
            lang = sparse_sft(rng, rng.choice((2, 3)))
            w = random_weights(rng, lang, -1, 1)
            lam = rng.uniform(-0.5, 1.5)
            N = rng.choice((1, 2))
            Z = ALL if rng.random() < 0.5 else ip.SubsetSpec.cylinders(
                [wd for wd in lang.words(2)[: rng.randrange(1, 3)]]
            )
            a = ip.cover_value(lang, w, Z, lam, N, 6)
            b = ip.word_cover_value(lang, w, Z, lam, N, 6)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-300)

    def test_requires_valid_depths(self):
        lang = full_shift(2)
        with pytest.raises(ip.PreconditionError):
            ip.cover_value(lang, const_weights(lang, 0.0), ALL, 0.5, 5, 4)

    def test_inadmissible_target_rejected(self):
        lang = golden_mean()
        Z = ip.SubsetSpec.cylinders([(2, 2)])
        with pytest.raises(ip.PreconditionError):
            ip.cover_value(lang, const_weights(lang, 0.0), Z, 0.5, 1, 6)


class TestBruteForceExactness:
    def test_dp_equals_exhaustive_antichain_minimum(self, rng):
        checked = 0
        while checked < 50:
            q = rng.choice((2, 3))
            lang = sparse_sft(rng, q)
            w = random_weights(rng, lang, 0.2, 1.5)
            lam = rng.uniform(0.0, 1.2)
            N = rng.choice((1, 2))
            D = 4
            if rng.random() < 0.4:
                words = lang.words(rng.choice((1, 2)))
                z_words = sorted(words)[: rng.randrange(1, len(words) + 1)]
                Z = ip.SubsetSpec.cylinders(z_words)
            else:
                z_words, Z = None, ALL
            tau_cost = lambda word: math.exp(-lam * len(word) + sum(w[s] for s in word))
            wt_cost = lambda word: math.exp(-lam * sum(w[s] for s in word))
            got_m = ip.cover_value(lang, w, Z, lam, N, D)
            got_r = ip.bs_cover_value(lang, w, Z, lam, N, D)
            assert got_m == pytest.approx(brute_cover_min(lang, tau_cost, z_words, N, D), rel=1e-12)
            assert got_r == pytest.approx(brute_cover_min(lang, wt_cost, z_words, N, D), rel=1e-12)
            checked += 1


class TestPpPressure:
    def test_full_2_shift(self):
        lang = full_shift(2)
        res = ip.pp_pressure(lang, const_weights(lang, 0.0), ALL, 1, 12, 1e-9)
        assert res.value == pytest.approx(math.log(2), abs=5e-9)
        assert res.value_below >= 1.0 >= res.value_above

    def test_constant_weight_shift(self):
        lang = full_shift(2)
        res = ip.pp_pressure(lang, const_weights(lang, 0.45), ALL, 1, 12, 1e-9)
        assert res.value == pytest.approx(math.log(2) + 0.45, abs=5e-9)

    def test_single_cylinder_subtree(self):
        lang = full_shift(2)
        for word in [(1,), (1, 2), (2, 2, 1)]:
            res = ip.pp_pressure(
                lang, const_weights(lang, 0.0), ip.SubsetSpec.cylinders([word]), 1, 12, 1e-9
            )
            assert res.value == pytest.approx(math.log(2), abs=5e-9)


class TestBsCoverValue:
    def test_positive_weight_required(self):
        lang = full_shift(2)
        with pytest.raises(ip.PreconditionError):
            ip.bs_cover_value(lang, weights({1: 1.0, 2: 0.0}), ALL, 0.5, 1, 6)

    def test_full_shift_jump_location(self):
        lang = full_shift(2)
        c = 0.8
        w = const_weights(lang, c)
        jump = ip.bs_jump(lang, w, ALL, 1, 12, 1e-9)
        assert jump.critical == pytest.approx(math.log(2) / c, abs=5e-9)
        assert jump.value_below >= 1.0 >= jump.value_above

    def test_unit_weight_reduces_to_time_variant(self, rng):
        for _ in range(5):
            lang = sparse_sft(rng, 3)
            ones = const_weights(lang, 1.0)
            lam = rng.uniform(0.0, 1.0)
            assert ip.bs_cover_value(lang, ones, ALL, lam, 1, 6) == pytest.approx(
                ip.cover_value(lang, ip.zero_weights(lang.symbols, 1), ALL, lam, 1, 6),
                rel=1e-12,
            )

    def test_lambda_zero_counts_cover(self, rng):
        lang = sparse_sft(rng, 3)
        w = random_weights(rng, lang, 0.2, 2.0)
        assert ip.bs_cover_value(lang, w, ALL, 0.0, 1, 6) >= 1.0

    def test_jump_factor_bound(self, rng):
        for _ in range(10):
            lang = sparse_sft(rng, 3)
            w = random_weights(rng, lang, 0.3, 1.5)
            lam0 = rng.uniform(0.0, 0.8)
            lam = lam0 + rng.uniform(0.05, 0.8)
            N = rng.choice((1, 2, 3))
            v0 = ip.bs_cover_value(lang, w, ALL, lam0, N, 6)
            v1 = ip.bs_cover_value(lang, w, ALL, lam, N, 6)
            m = min(w.weights.values())
            assert v1 <= v0 * math.exp((lam0 - lam) * N * m) + 1e-12


class TestBsDimension:
    def test_full_shift_closed_forms(self):
        lang = full_shift(2)
        for c in (0.5, math.log(2), 2.0):
            res = ip.bs_dimension(lang, const_weights(lang, c), ALL, 1e-7, 1, 14)
            assert res.value == pytest.approx(math.log(2) / c, abs=1e-6)
            assert res.root_jump_gap <= 2e-6

    def test_golden_mean_unit_weight(self):
        res = ip.bs_dimension(golden_mean(), weights({1: 1.0, 2: 1.0}), ALL, 1e-7, 1, 14)
        assert res.value == pytest.approx(0.4812118, abs=1e-6)
        assert res.root_jump_gap <= 2e-6

    def test_monotone_in_target(self, rng):
        lang = full_shift(2)
        w = random_weights(rng, lang, 0.4, 1.4)
        small = ip.SubsetSpec.cylinders([(1, 1)])
        large = ip.SubsetSpec.cylinders([(1, 1), (2,)])
        d_small = ip.bs_dimension(lang, w, small, 1e-6, 1, 10).value
        d_large = ip.bs_dimension(lang, w, large, 1e-6, 1, 10).value
        assert d_small <= d_large + 2e-6


class TestCoverSolution:
    def test_cost_recomputation(self, rng):
        for _ in range(5):
            lang = sparse_sft(rng, 3)
            w = random_weights(rng, lang, -0.5, 0.5)
            lam = rng.uniform(0.1, 1.0)
            sol = ip.cover_solution(lang, w, ALL, lam, 1, 6)
            assert sol.cost == pytest.approx(ip.cover_value(lang, w, ALL, lam, 1, 6), rel=1e-12)
            flat = math.fsum(
                math.exp(-lam * len(word) + sum(w[s] for s in word)) for word in sol.words
            )
            assert sol.cost == pytest.approx(flat, rel=1e-12)

    def test_ties_resolve_shallow(self):
        # at lam = log 2 every full-shift level costs the same; ties pick depth N
        lang = full_shift(2)
        sol = ip.cover_solution(lang, const_weights(lang, 0.0), ALL, math.log(2), 2, 8)
        assert all(len(word) == 2 for word in sol.words)

    def test_deep_resolution_within_small_guard(self):
        # the argmin walk visits only the cover and its ancestors, never L^48
        lang = golden_mean()
        w0 = const_weights(lang, 0.0)
        sol = ip.cover_solution(lang, w0, ALL, 0.1, 1, 48, max_nodes=100)
        assert sol.cost == pytest.approx(ip.cover_value(lang, w0, ALL, 0.1, 1, 48), rel=1e-12)
        for a in sol.words:
            for b in sol.words:
                if a != b:
                    assert a[: len(b)] != b and b[: len(a)] != a

    def test_solution_is_antichain_cover(self, rng):
        lang = sparse_sft(rng, 3)
        w = random_weights(rng, lang, -0.5, 0.5)
        sol = ip.cover_solution(lang, w, ALL, 0.3, 1, 5)
        for a in sol.words:
            for b in sol.words:
                if a != b:
                    assert a[: len(b)] != b and b[: len(a)] != a
        for leaf in lang.words(5):
            assert any(leaf[: len(word)] == word for word in sol.words)


class TestWeightedCoverAndFrostman:
    def test_matches_antichain_optimum(self, rng):
        for _ in range(10):
            lang = sparse_sft(rng, rng.choice((2, 3)))
            w = random_weights(rng, lang, 0.3, 1.5)
            lam = rng.uniform(0.1, 1.0)
            N = rng.choice((1, 2))
            assert ip.weighted_cover_value(lang, w, ALL, lam, N, 6) == pytest.approx(
                ip.bs_cover_value(lang, w, ALL, lam, N, 6), rel=1e-10
            )

    def test_fractional_lp_oracle(self, rng):
        for _ in range(8):
            lang = sparse_sft(rng, rng.choice((2, 3)))
            w = random_weights(rng, lang, 0.3, 1.5)
            lam = rng.uniform(0.1, 1.0)
            N = rng.choice((1, 2))
            if rng.random() < 0.5:
                words = lang.words(2)
                z_words = sorted(words)[: rng.randrange(1, len(words) + 1)]
                Z = ip.SubsetSpec.cylinders(z_words)
            else:
                z_words, Z = None, ALL
            cost = lambda word: math.exp(-lam * sum(w[s] for s in word))
            got = ip.weighted_cover_value(lang, w, Z, lam, N, 4)
            assert got == pytest.approx(lp_cover_min(lang, cost, z_words, N, 4), rel=1e-8)

    def test_uniform_caps_give_uniform_masses(self):
        # caps 2^-n on the full 2-shift: flow saturates every leaf equally
        lang = full_shift(2)
        fw = ip.frostman_measure(lang, const_weights(lang, 1.0), ALL, math.log(2), 1, 10)
        assert fw.total == pytest.approx(1.0, rel=1e-12)
        masses = fw.normalized()
        assert len(masses) == 2**10
        for m in masses.values():
            assert m == pytest.approx(2.0**-10, rel=1e-12)

    def test_golden_mean_flow_approximates_max_entropy_chain(self):
        # the flow reproduces the max-entropy chain's transition probabilities
        # exactly away from the leaf boundary; absolute cylinder masses differ
        # only through the root split, which follows the right Perron vector
        lang = golden_mean()
        fw = ip.frostman_measure(lang, weights({1: 1.0, 2: 1.0}), ALL, LOG_GOLDEN, 1, 8)
        mu = ip.frostman_cylinder_measure(lang, fw)
        parry_chain = ip.parry_measure(lang)
        parry = ip.cylinder_masses(parry_chain, lang, 8)
        for word, mass in parry.masses.items():
            assert abs(mu.mass(word) - mass) <= 0.01
        for n in range(1, 6):
            for word in lang.words(n):
                base = mu.mass(word)
                for nxt in lang.successors(word[-1]):
                    got = mu.mass(word + (nxt,)) / base
                    expect = parry_chain.matrix[parry_chain.index(word[-1])][parry_chain.index(nxt)]
                    assert got == pytest.approx(expect, abs=1e-12)

    def test_single_branch_all_mass_on_one_leaf(self):
        lang = single_branch()
        fw = ip.frostman_measure(lang, weights({1: 0.7}), ALL, 0.4, 1, 6)
        assert list(fw.masses) == [(1,) * 6]
        assert fw.total == pytest.approx(math.exp(-0.4 * 0.7 * 6), rel=1e-12)

    def test_caps_hold_on_every_node(self, rng):
        for _ in range(5):
            lang = sparse_sft(rng, 3)
            w = random_weights(rng, lang, 0.3, 1.5)
            lam = rng.uniform(0.1, 0.8)
            N, D = rng.choice((1, 2)), 6
            fw = ip.frostman_measure(lang, w, ALL, lam, N, D)
            under = {}
            for leaf, m in fw.masses.items():
                for n in range(N, D + 1):
                    under[leaf[:n]] = under.get(leaf[:n], 0.0) + m
            for word, total in under.items():
                cap = math.exp(-lam * sum(w[s] for s in word))
                assert total <= cap + 1e-12

    def test_duality_total(self, rng):
        for _ in range(10):
            lang = sparse_sft(rng, rng.choice((2, 3)))
            w = random_weights(rng, lang, 0.3, 1.5)
            lam = rng.uniform(0.1, 1.0)
            fw = ip.frostman_measure(lang, w, ALL, lam, 1, 6)
            W = ip.weighted_cover_value(lang, w, ALL, lam, 1, 6)
            assert fw.total == pytest.approx(W, rel=1e-10)


class TestSandwich:
    def test_randomized_golden_instances(self, rng):
        lang = golden_mean()
        for eps in (0.1, 0.01):
            for _ in range(3):
                w = random_weights(rng, lang, 0.3, 1.5)
                lam = rng.uniform(0.0, 1.0)
                rep = ip.sandwich_check(lang, w, ALL, lam, eps, 1, 8)
                assert rep.holds
                assert rep.r_at_lam_plus_eps <= rep.w_at_lam + 1e-9
                assert rep.w_at_lam <= rep.r_at_lam + 1e-9

    def test_full_shift_closed_form(self):
        lang = full_shift(2)
        ones = const_weights(lang, 1.0)
        lam = 0.4  # below log 2: level-1 cover, value 2 e^-lam
        rep = ip.sandwich_check(lang, ones, ALL, lam, 0.1, 1, 8)
        assert rep.r_at_lam == pytest.approx(2 * math.exp(-lam), rel=1e-12)
        assert rep.w_at_lam == pytest.approx(2 * math.exp(-lam), rel=1e-12)
        assert rep.holds

    def test_empty_target_degenerate(self):
        lang = full_shift(2)
        rep = ip.sandwich_check(lang, const_weights(lang, 1.0), ip.SubsetSpec.cylinders([]), 0.5, 0.1, 1, 6)
        assert rep.r_at_lam == rep.w_at_lam == rep.r_at_lam_plus_eps == 0.0
        assert rep.holds


class TestCorollary:
    def test_full_2_shift_unit_scale(self):
        rep = ip.corollary_check(full_shift(2), const_weights(full_shift(2), 1.0), 12, 1e-7)
        assert rep.bs_value == pytest.approx(math.log(2), abs=1e-6)
        assert rep.root_value == pytest.approx(math.log(2), abs=1e-6)
        assert rep.gap <= 5e-6

    def test_golden_mean_weighted(self):
        rep = ip.corollary_check(golden_mean(), weights({1: 1.0, 2: 2.0}), 12, 1e-7)
        beta_star = -math.log(cubic_time_scale_root())
        assert rep.bs_value == pytest.approx(beta_star, abs=1e-6)
        assert rep.gap <= 5e-6

    def test_single_branch_zero(self):
        rep = ip.corollary_check(single_branch(), weights({1: 1.7}), 10, 1e-7)
        assert abs(rep.bs_value) <= 1e-6
        assert rep.gap <= 5e-6
