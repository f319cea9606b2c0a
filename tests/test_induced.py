"""Induced (time-budget) sums, level sets, and the boundedness scan."""

import math

import pytest

import invpressure as ip
from conftest import const_weights, full_shift, golden_mean, random_sft, random_weights, weights


def brute_induced_log_sum(lang, w_phi, w_psi, T):
    """Independent oracle: enumerate all words, test the crossing condition on
    every extension, de-duplicate prefixes by hand."""
    budget = T * w_psi.tau
    n_hi = int(math.floor(budget / min(w_psi.weights.values()))) + 1
    total = 0.0
    for n in range(0, n_hi + 1):
        prefixes = set()
        for word in lang.words(n + 1):
            head = sum(w_psi[s] for s in word[:n])
            if head <= budget < head + w_psi[word[n]]:
                prefixes.add(word[:n])
        total += math.fsum(math.exp(sum(w_phi[s] for s in p)) for p in sorted(prefixes))
    return math.log(total)


class TestLevelSets:
    def test_full_2_shift_unit_scale(self):
        lang = full_shift(2)
        sets = ip.compute_level_sets(lang, const_weights(lang, 1.0), 10.5)
        assert sets.window_levels == (10,)
        assert len(sets.crossing_words[10]) == 2**11

    def test_golden_mean_weighted(self):
        lang = golden_mean()
        sets = ip.compute_level_sets(lang, weights({1: 1.0, 2: 2.0}), 3.0)
        assert sets.window_levels == (2, 3)
        assert set(sets.crossing_words[2]) == {(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)}
        assert set(sets.crossing_words[3]) == {(1, 1, 1, 1), (1, 1, 1, 2)}

    def test_all_weights_above_budget(self):
        lang = full_shift(2)
        sets = ip.compute_level_sets(lang, const_weights(lang, 5.0), 3.0)
        assert sets.window_levels == (0,)

    def test_window_bounds(self, rng):
        for _ in range(10):
            lang = random_sft(rng, 3)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(1.0, 4.0)
            sets = ip.compute_level_sets(lang, w_psi, T)
            lo = T / w_psi.rate_max() - 1
            hi = T / w_psi.rate_min()
            for n in sets.window_levels:
                assert lo < n <= hi


class TestInducedSum:
    def test_full_2_shift_value(self):
        lang = full_shift(2)
        got = ip.induced_sum(lang, const_weights(lang, 0.0), const_weights(lang, 1.0), 10.5)
        assert got == pytest.approx(10 * math.log(2), rel=1e-12)

    def test_golden_mean_against_brute_oracle(self):
        lang = golden_mean()
        w0 = const_weights(lang, 0.0)
        w_psi = weights({1: 1.0, 2: 2.0})
        oracle = brute_induced_log_sum(lang, w0, w_psi, 3.0)
        got = ip.induced_sum(lang, w0, w_psi, 3.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(math.log(4), rel=1e-12)

    def test_random_instances_against_brute_oracle(self, rng):
        for _ in range(8):
            lang = random_sft(rng, rng.choice((2, 3)))
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(1.0, 3.5)
            assert ip.induced_sum(lang, w_phi, w_psi, T) == pytest.approx(
                brute_induced_log_sum(lang, w_phi, w_psi, T), rel=1e-10, abs=1e-10
            )

    def test_normalized_trend_toward_pressure(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        gaps = []
        for T in (10.5, 20.5, 40.5):
            v = ip.induced_sum(lang, w0, ones, T) / T
            gaps.append(abs(v - math.log(2)))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[0] <= 0.07 and gaps[-1] <= 0.02

    def test_spanning_variant_equality(self, rng):
        lang = golden_mean()
        w0 = const_weights(lang, 0.0)
        w_psi = weights({1: 1.0, 2: 2.0})
        assert ip.induced_sum_spanning(lang, w0, w_psi, 3.0) == pytest.approx(
            ip.induced_sum(lang, w0, w_psi, 3.0), rel=1e-12
        )
        for _ in range(6):
            lang = random_sft(rng, 3)
            w_phi = random_weights(rng, lang, -0.5, 0.5)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(1.0, 3.0)
            assert ip.induced_sum_spanning(lang, w_phi, w_psi, T) == pytest.approx(
                ip.induced_sum(lang, w_phi, w_psi, T), rel=1e-10, abs=1e-10
            )

    def test_finite_budget_bounds(self, rng):
        # the explicit finite-T enclosure from the budget window
        for _ in range(10):
            lang = random_sft(rng, 3)
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(2.0, 4.0)
            val = ip.induced_sum(lang, w_phi, w_psi, T)
            norm_phi = max(abs(v) for v in w_phi.weights.values())
            norm_psi = max(w_psi.weights.values())
            m = min(w_psi.weights.values())
            q = len(lang.symbols)
            lo = -(T / m) * norm_phi
            hi = math.log(T / m - T / norm_psi + 1) + (T / m + 1) * math.log(q) + (T / m) * norm_phi
            assert lo - 1e-9 <= val <= hi + 1e-9


class TestBookkeepingIndex:
    def test_uniqueness_and_bounds(self, rng):
        for _ in range(50):
            lang = random_sft(rng, 3)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            word = rng.choice(lang.words(rng.randrange(1, 7)))
            m = ip.bookkeeping_index(word, w_psi)
            unit = w_psi.rate_max() * w_psi.tau
            total = sum(w_psi[s] for s in word)
            assert m >= 1
            assert (m - 1) * unit < total <= m * unit + 1e-12

    def test_tilt_comparison_factor(self, rng):
        # exp(-beta*weight) vs exp(-beta*m*unit) within exp(|beta|*unit)
        for _ in range(50):
            lang = random_sft(rng, 3)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            word = rng.choice(lang.words(rng.randrange(1, 7)))
            beta = rng.uniform(-2, 2)
            unit = w_psi.rate_max() * w_psi.tau
            m = ip.bookkeeping_index(word, w_psi)
            exact = -beta * sum(w_psi[s] for s in word)
            rounded = -beta * m * unit
            assert rounded - abs(beta) * unit <= exact + 1e-9
            assert exact <= rounded + abs(beta) * unit + 1e-9

    def test_empty_word_rejected(self):
        with pytest.raises(ip.PreconditionError):
            ip.bookkeeping_index((), weights({1: 1.0}))


class TestCharacterization:
    def test_convergent_above_pressure(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        res = ip.characterization_sum(lang, w0, ones, math.log(2) + 0.1, 10.5)
        assert res.verdict == ip.CONVERGENT
        assert res.growth_rate == pytest.approx(-0.1, abs=1e-9)
        assert res.tail_log_bound is not None

    def test_divergent_below_pressure(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        res = ip.characterization_sum(lang, w0, ones, math.log(2) - 0.1, 10.5)
        assert res.verdict == ip.DIVERGENT
        assert res.growth_rate == pytest.approx(0.1, abs=1e-9)

    def test_critical_is_inconclusive(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        res = ip.characterization_sum(lang, w0, ones, math.log(2), 10.5)
        assert res.verdict == ip.INCONCLUSIVE

    def test_partial_sum_matches_direct_series(self):
        # full 2-shift, psi = 1: level n>=11 contributes 2^n e^{-beta n}
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        beta = math.log(2) + 0.2
        res = ip.characterization_sum(lang, w0, ones, beta, 10.5, n_cap=40)
        direct = math.log(
            math.fsum(2**n * math.exp(-beta * n) for n in range(11, 41))
        )
        assert res.partial_log_sum == pytest.approx(direct, rel=1e-12)

    def test_scan_flip_brackets_pressure(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        betas = [0.40 + 0.05 * k for k in range(13)]
        results = ip.characterization_scan(lang, w0, ones, betas, 10.5)
        flip = ip.verdict_flip(results)
        assert flip is not None
        assert flip[0] <= math.log(2) <= flip[1]

    def test_single_branch_flip_brackets_ratio(self):
        lang = ip.compile_sft([1], [(1, 1)])
        w_phi, w_psi = weights({1: 0.9}), weights({1: 1.5})
        betas = [0.0 + 0.05 * k for k in range(25)]
        results = ip.characterization_scan(lang, w_phi, w_psi, betas, 6.0)
        flip = ip.verdict_flip(results)
        assert flip[0] <= 0.9 / 1.5 <= flip[1]

    def test_scan_point_equals_single_sum(self, rng):
        # one batched recursion for the grid; no point may depend on its neighbours
        for lang in (golden_mean(), random_sft(rng, 4), random_sft(rng, 5)):
            w_phi = random_weights(rng, lang, -1.0, 1.0)
            w_psi = random_weights(rng, lang, 0.5, 1.5)
            betas = [rng.uniform(-1.0, 3.0) for _ in range(9)]
            results = ip.characterization_scan(lang, w_phi, w_psi, betas, 4.0)
            for beta, res in zip(betas, results):
                single = ip.characterization_sum(
                    lang, w_phi, w_psi, beta, 4.0, include_partial=False
                )
                assert res == single

    def test_empty_grid(self):
        lang = golden_mean()
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        assert ip.characterization_scan(lang, w0, ones, [], 10.5) == []
