"""Cover optimization: outer sums, critical exponents, duality, Frostman flows."""

import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

import invpressure as ip
from invpressure import covers
from invpressure.symbolic import MAX_DEPTH
from conftest import (
    brute_cover_min,
    chain_index,
    const_weights,
    cubic_time_scale_root,
    full_shift,
    golden_mean,
    lp_cover_min,
    nested_bisection_dimension,
    random_itinerary,
    random_sft,
    random_weights,
    record_expansions,
    reference_cover_table,
    single_branch,
    sparse_sft,
    successors,
    weights,
    word_cover_value,
    words,
)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
ALL = ip.SubsetSpec.whole_space()


def prefix_loop_cylinders(words):
    """The antichain of the listed words by pairwise prefix tests (quadratic)."""
    uniq = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
    kept = []
    for w in uniq:
        if not any(w[: len(p)] == p for p in kept):
            kept.append(w)
    return tuple(sorted(kept))


class TestSubsetSpec:
    def test_cylinders_against_the_prefix_loop(self, rng):
        for _ in range(200):
            pool = [
                tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(0, 12))
            ]
            # duplicates, and extensions of words already listed
            pool += [rng.choice(pool) + tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
                     for _ in range(rng.randint(0, 6)) if pool]
            rng.shuffle(pool)
            assert ip.SubsetSpec.cylinders(pool).words == prefix_loop_cylinders(pool)
        assert ip.SubsetSpec.cylinders([(), (1,)]).words == ((),)

    def test_cylinders_normalize_many_words_in_linear_time(self):
        # the pairwise loop it replaced is quadratic: tens of seconds on these words
        gen = random.Random(16)
        pool = [tuple(gen.randint(1, 4) for _ in range(16)) for _ in range(20_000)]
        start = time.perf_counter()
        Z = ip.SubsetSpec.cylinders(pool)
        assert time.perf_counter() - start < 2.0
        assert Z.words == tuple(sorted(set(pool)))

    def test_contains(self):
        Z = ip.SubsetSpec.cylinders([(1, 2), (2,)])
        assert [Z.contains(w) for w in [(1, 2), (1, 2, 1), (2, 1, 1), (1,), (1, 1, 2), ()]] == [
            True, True, True, False, False, False,
        ]
        assert ALL.contains(()) and not ip.SubsetSpec.cylinders([]).contains((1,))


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
                [wd for wd in words(lang, 2)[: rng.randrange(1, 3)]]
            )
            a = ip.cover_value(lang, w, Z, lam, N, 6)
            b = word_cover_value(lang, w, Z, lam, N, 6)
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
                pool = words(lang, rng.choice((1, 2)))
                z_words = sorted(pool)[: rng.randrange(1, len(pool) + 1)]
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
        assert res.critical == pytest.approx(math.log(2), abs=5e-9)
        assert res.value_below >= 1.0 >= res.value_above

    def test_constant_weight_shift(self):
        lang = full_shift(2)
        res = ip.pp_pressure(lang, const_weights(lang, 0.45), ALL, 1, 12, 1e-9)
        assert res.critical == pytest.approx(math.log(2) + 0.45, abs=5e-9)

    def test_single_cylinder_subtree(self):
        lang = full_shift(2)
        for word in [(1,), (1, 2), (2, 2, 1)]:
            res = ip.pp_pressure(
                lang, const_weights(lang, 0.0), ip.SubsetSpec.cylinders([word]), 1, 12, 1e-9
            )
            assert res.critical == pytest.approx(math.log(2), abs=5e-9)

    def test_golden_mean_kinked_jump_in_few_steps(self):
        # the detector has a kink at its root, where bisection takes 33 steps
        res = ip.pp_pressure(golden_mean(), weights({1: 0.3, 2: -0.2}), ALL, 1, 48, 1e-9)
        assert res.iterations <= 15
        assert res.value_below >= 1.0 >= res.value_above


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
        for leaf in words(lang, 5):
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
                pool = words(lang, 2)
                z_words = sorted(pool)[: rng.randrange(1, len(pool) + 1)]
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
        mu = ip.CylinderMeasure(lang, fw.D, fw.normalized())
        parry_chain = ip.parry_measure(lang)
        parry = ip.cylinder_masses(parry_chain, lang, 8)
        for word, mass in parry.masses.items():
            assert abs(mu.mass(word) - mass) <= 0.01
        for n in range(1, 6):
            for word in words(lang, n):
                base = mu.mass(word)
                for nxt in successors(lang, word[-1]):
                    got = mu.mass(word + (nxt,)) / base
                    i, j = chain_index(parry_chain, word[-1]), chain_index(parry_chain, nxt)
                    expect = parry_chain.matrix[i][j]
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

    @pytest.mark.parametrize("target", ["whole", "cylinders"])
    def test_flow_guard(self, target):
        # depth 10 of the full 2-shift: flow enters 2 + 4 + ... + 2^10 = 2^11 - 2
        # cylinders; under [1] and [2, 1] it enters 1 + 2 + ... + 2^9 = 2^10 - 1
        # and 1 + 1 + 2 + ... + 2^8 = 2^9 cylinders
        lang, w = full_shift(2), const_weights(full_shift(2), 1.0)
        if target == "whole":
            Z, visits, leaves = ALL, 2**11 - 2, 2**10
        else:
            Z = ip.SubsetSpec.cylinders([(1,), (2, 1)])
            visits, leaves = 2**10 - 1 + 2**9, 2**9 + 2**8
        fw = ip.frostman_measure(lang, w, Z, 0.5, 1, 10, max_nodes=visits)
        assert len(fw.masses) == leaves
        with pytest.raises(ip.GuardError):
            ip.frostman_measure(lang, w, Z, 0.5, 1, 10, max_nodes=visits - 1)


    @pytest.mark.parametrize("target", ["whole", "cylinder"])
    def test_flow_at_the_depth_limit(self, target):
        # a 2-cycle has two words at every depth, so its flow at the depth
        # limit is cheap, and it runs in one frame at any depth
        lang = ip.compile_sft([1, 2], [(1, 2), (2, 1)])
        w = weights({1: 0.7, 2: 1.3})
        Z = ALL if target == "whole" else ip.SubsetSpec.cylinders([(2,)])
        fw = ip.frostman_measure(lang, w, Z, 0.5, 1, MAX_DEPTH)
        words = [(1, 2) * (MAX_DEPTH // 2), (2, 1) * (MAX_DEPTH // 2)]
        assert list(fw.masses) == (words if target == "whole" else words[1:])
        assert math.fsum(fw.masses.values()) == pytest.approx(fw.total, rel=1e-9)

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


class TestSearchesOnOneGraph:
    """Root and jump searches through the bracketing driver, on a compiled cover graph."""

    @pytest.mark.parametrize("kind", ["sft", "itinerary"])
    def test_dimension_matches_nested_bisection(self, rng, kind):
        for _ in range(3):
            lang = sparse_sft(rng, 3) if kind == "sft" else random_itinerary(rng, 10, 3)
            w = random_weights(rng, lang, 0.4, 1.5)
            N, D = rng.choice((1, 2)), 7
            res = ip.bs_dimension(lang, w, ALL, 1e-6, N, D)
            ref = nested_bisection_dimension(lang, w, N, D)
            assert abs(res.value - ref) <= res.certificate.error_bound + 1e-10
            assert res.certificate.error_bound <= 1e-6

    def test_small_weights_keep_the_certificate_within_tol(self):
        # inner searches tighten with the least rate, so the stop rule stays reachable
        lang = golden_mean()
        for c in (0.05, 0.01):
            w = weights({1: c, 2: 2 * c})
            res = ip.bs_dimension(lang, w, ALL, 1e-6, 1, 8)
            assert res.certificate.error_bound <= 1e-6
            ref = nested_bisection_dimension(lang, w, 1, 8)
            assert abs(res.value - ref) <= res.certificate.error_bound + 1e-10

    def test_dimension_certificate_adds_the_inner_tolerance(self, rng):
        lang = sparse_sft(rng, 3)
        w = random_weights(rng, lang, 0.4, 1.5)
        cert = ip.bs_dimension(lang, w, ALL, 1e-6, 1, 8).certificate
        assert cert.error_bound == (abs(cert.residual) + 1e-6 / 16) / w.rate_min()

    def test_root_and_jump_are_independent_searches(self):
        lang, w = golden_mean(), weights({1: 1.0, 2: 1.7})
        res = ip.bs_dimension(lang, w, ALL, 1e-6, 1, 12)
        jump = ip.bs_jump(lang, w, ALL, 1, 12, 1e-6 / 16)
        assert res.jump == jump
        assert res.value == res.certificate.beta_hat
        assert res.root_jump_gap == abs(res.value - jump.critical)
        assert jump.iterations > 0 and jump.bracket != res.certificate.bracket

    def test_jump_is_reported_at_the_upper_end(self):
        lang = full_shift(3)
        jump = ip.bs_jump(lang, const_weights(lang, 1.0), ALL, 1, 10, 1e-9)
        lo, hi = jump.bracket
        assert jump.critical == hi and hi - lo <= 1e-9
        assert jump.value_above < 1.0 <= jump.value_below

    def test_wrong_hint_gives_the_cold_jump(self):
        graph = covers._CoverGraph(full_shift(3), ALL, 10)
        steps = lambda lam: [-lam] * 3
        for lo, hi in ((-3.0, 3.0), (2.0, 2.5), (-4.0, -3.9), (1.0986, 1.09861)):
            crit = covers._jump(graph, steps, 1, lo, hi, 1e-9)[0]
            assert abs(crit - math.log(3)) <= 1e-9 + 1e-15

    def test_bs_dimension_expands_each_unit_once(self, rng):
        lang = random_itinerary(rng, 14, 3)
        Z = ip.SubsetSpec.cylinders(words(lang, 2)[:2])
        levels = record_expansions(lang)
        w = random_weights(rng, lang, 0.4, 1.5)
        ip.bs_dimension(lang, w, Z, 1e-6, 1, 10)
        first = len(levels)
        ip.bs_dimension(lang, w, ALL, 1e-6, 1, 10)
        # the second search reuses the graph; no unit is expanded twice
        assert levels and len(levels) == first
        expanded = [unit for level in levels for unit in level]
        assert len(expanded) == len(set(expanded))
        assert sorted(expanded) == np.unique(lang.unit_graph(10).src).tolist()

    def test_one_cover_graph_per_language_target_and_depth(self, monkeypatch):
        compiled = []
        graph_class = covers._CoverGraph
        monkeypatch.setattr(
            covers, "_CoverGraph", lambda *args: compiled.append(args) or graph_class(*args)
        )
        lang, w = golden_mean(), weights({1: 1.0, 2: 2.0})
        ip.bs_dimension(lang, w, ALL, 1e-6, 1, 10)  # the root search and its jump
        ip.sandwich_check(lang, w, ALL, 0.4, 0.1, 1, 10)
        ip.frostman_measure(lang, w, ALL, 0.4, 1, 10)
        assert len(compiled) == 1
        ip.bs_jump(lang, w, ALL, 1, 9)
        ip.bs_jump(golden_mean(), w, ALL, 1, 10)
        assert len(compiled) == 3

    def test_read_outs_match_word_route(self, rng):
        for trial in range(10):
            lang = sparse_sft(rng, 3) if trial % 2 else random_itinerary(rng, 10, 3)
            w = random_weights(rng, lang, 0.3, 1.5)
            lam, N, D = rng.uniform(0.1, 1.0), rng.choice((1, 2)), 6
            Z = ALL if trial % 3 == 0 else ip.SubsetSpec.cylinders(
                words(lang, 2)[: rng.randrange(1, 3)]
            )
            sol = ip.cover_solution(lang, w, Z, lam, N, D)
            assert sol.cost == pytest.approx(word_cover_value(lang, w, Z, lam, N, D), rel=1e-12)
            for a in sol.words:
                for b in sol.words:
                    assert a == b or (a[: len(b)] != b and b[: len(a)] != a)
            fw = ip.frostman_measure(lang, w, Z, lam, N, D)
            W = word_cover_value(lang, w.scaled(-lam), Z, 0.0, N, D)
            assert fw.total == pytest.approx(W, rel=1e-12)
            assert math.fsum(fw.masses.values()) == pytest.approx(fw.total, rel=1e-12)


def _bits(rows):
    return [[v.hex() for v in row] for row in rows]


class TestCoverTablePass:
    """The table's per-node pass, bitwise against the per-node ``logsumexp`` reference."""

    def test_compiled_graphs(self, rng):
        arities = set()
        for trial in range(30):
            kind = trial % 3
            if kind == 0:
                lang = random_sft(rng, rng.choice((2, 3, 5)))
            elif kind == 1:
                lang = sparse_sft(rng, 4)
            else:
                lang = random_itinerary(rng, 12, 3)
            Z = ALL if trial % 2 else ip.SubsetSpec.cylinders(words(lang, 2)[: rng.randrange(1, 4)])
            D = rng.randrange(3, 9)
            N = rng.randrange(1, D + 1)
            graph = covers._CoverGraph(lang, Z, D)
            step = [rng.uniform(-2.0, 1.0) for _ in lang.symbols]
            if trial % 4 == 0:
                step[rng.randrange(len(step))] = -math.inf
            table = covers._CoverTable(graph, step, N)
            rel, alpha = reference_cover_table(graph, step, N)
            assert _bits(table.rel) == _bits(rel) and _bits(table.alpha) == _bits(alpha)
            arities.update(min(len(kids), 3) for layer in graph.layers for kids in layer)
        assert arities == {1, 2, 3}

    def test_head_adds_a_word_left_to_right(self):
        # the built-in sum rounds 0.1 + 0.2 + 0.3 to 0.6 on Python 3.12
        Z = ip.SubsetSpec.cylinders([(1, 2, 3)])
        table = covers._CoverTable(covers._CoverGraph(full_shift(3), Z, 4), [0.1, 0.2, 0.3], 1)
        assert table.head.hex() == ((0.1 + 0.2) + 0.3).hex()

    def test_hand_built_layers(self, rng):
        # dead ends and infinite steps never come out of a compiled language
        q = 4
        for _ in range(200):
            D = rng.randrange(1, 6)
            widths = [1] + [rng.randrange(1, 6) for _ in range(D)]
            layers = [
                [
                    [(rng.randrange(q), rng.randrange(widths[n + 1])) for _ in range(rng.randrange(5))]
                    for _ in range(widths[n])
                ]
                for n in range(D)
            ]
            graph = SimpleNamespace(D=D, leaves=widths[D], layers=layers)
            step = [rng.choice((-math.inf, math.inf, 0.0, rng.uniform(-3.0, 3.0))) for _ in range(q)]
            N = rng.randrange(1, D + 1)
            table = covers._CoverTable(graph, step, N)
            rel, alpha = reference_cover_table(graph, step, N)
            assert _bits(table.rel) == _bits(rel) and _bits(table.alpha) == _bits(alpha)
