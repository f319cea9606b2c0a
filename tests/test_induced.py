"""Induced (time-budget) sums, level sets, and the boundedness scan."""

import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import invpressure as ip
from invpressure import capacity, induced
from invpressure.symbolic import MAX_DEPTH, MAX_WORDS
from conftest import (
    bisect_root,
    compute_level_sets,
    const_weights,
    dense_log_radius,
    full_shift,
    golden_itinerary,
    golden_mean,
    induced_sum_spanning,
    random_itinerary,
    random_sft,
    random_weights,
    weights,
    words,
)


def brute_induced_log_sum(lang, w_phi, w_psi, T):
    """Independent oracle: enumerate all words, test the crossing condition on
    every extension, de-duplicate prefixes by hand.  The budget is decided in
    exact rationals on the decimals the floats print as, like ``compute_level_sets``."""
    psi = {s: Fraction(repr(w)) for s, w in w_psi.weights.items()}
    budget = Fraction(repr(T)) * w_psi.tau
    n_hi = math.floor(budget / min(psi.values())) + 1
    total = 0.0
    for n in range(0, n_hi + 1):
        prefixes = set()
        for word in words(lang, n + 1):
            head = sum(psi[s] for s in word[:n])
            if head <= budget < head + psi[word[n]]:
                prefixes.add(word[:n])
        total += math.fsum(math.exp(sum(w_phi[s] for s in p)) for p in sorted(prefixes))
    return math.log(total)


class TestLevelSets:
    def test_full_2_shift_unit_scale(self):
        lang = full_shift(2)
        sets = compute_level_sets(lang, const_weights(lang, 1.0), 10.5)
        assert sets.window_levels == (10,)
        assert len(sets.crossing_words[10]) == 2**11

    def test_golden_mean_weighted(self):
        lang = golden_mean()
        sets = compute_level_sets(lang, weights({1: 1.0, 2: 2.0}), 3.0)
        assert sets.window_levels == (2, 3)
        assert set(sets.crossing_words[2]) == {(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)}
        assert set(sets.crossing_words[3]) == {(1, 1, 1, 1), (1, 1, 1, 2)}

    def test_all_weights_above_budget(self):
        lang = full_shift(2)
        sets = compute_level_sets(lang, const_weights(lang, 5.0), 3.0)
        assert sets.window_levels == (0,)

    @pytest.mark.parametrize("T,level", [(0.3, 3), (0.7, 7)])
    def test_psi_sum_on_the_budget_is_inside(self, T, level):
        # 0.1 + 0.1 + 0.1 > 0.3 in binary floats; the oracle decides on the decimals
        lang = full_shift(2)
        sets = compute_level_sets(lang, const_weights(lang, 0.1), T)
        assert sets.window_levels == (level,)
        assert len(sets.crossing_words[level]) == 2 ** (level + 1)
        assert sets.exceed_levels[0] == level + 1

    def test_window_bounds(self, rng):
        for _ in range(10):
            lang = random_sft(rng, 3)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(1.0, 4.0)
            sets = compute_level_sets(lang, w_psi, T)
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
        # random relations, then itinerary languages, whose units are sorted state ids
        makers = [lambda: random_sft(rng, rng.choice((2, 3)))] * 8
        makers += [lambda: random_itinerary(rng, rng.choice((6, 10, 14)), rng.choice((2, 3)))] * 8
        for make in makers:
            lang = make()
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(1.0, 3.5)
            assert ip.induced_sum(lang, w_phi, w_psi, T) == pytest.approx(
                brute_induced_log_sum(lang, w_phi, w_psi, T), rel=1e-10, abs=1e-10
            )

    @pytest.mark.parametrize(
        "lang,psi,tau,T,count",
        [
            (full_shift(2), {1: 0.1, 2: 0.1}, 1, 0.3, 8),
            (full_shift(2), {1: 0.2, 2: 0.2}, 1, 0.6, 8),
            (golden_mean(), {1: 0.1, 2: 0.2}, 1, 0.3, 4),
            (full_shift(2), {1: math.fsum([0.1] * 3), 2: math.fsum([0.1] * 3)}, 3, 0.3, 8),
            (full_shift(2), {1: 0.1, 2: 0.1}, 1, 0.7, 128),
        ],
        ids=["fs2-0.1", "fs2-0.2", "golden-mean", "fs2-tau3", "fs2-T0.7"],
    )
    def test_psi_sum_on_the_budget_is_inside(self, lang, psi, tau, T, count):
        # every word whose psi-sum lands on T*tau is kept, and counted once, at its crossing
        w0 = const_weights(lang, 0.0)
        got = ip.induced_sum(lang, w0, weights(psi, tau), T)
        assert got == pytest.approx(math.log(count), rel=1e-12)
        if tau == 1:  # the decimal oracles read the tau-3 psi as 0.30000000000000004
            assert induced_sum_spanning(lang, w0, weights(psi), T) == pytest.approx(got, rel=1e-12)
            assert brute_induced_log_sum(lang, w0, weights(psi), T) == pytest.approx(got, rel=1e-12)

    @pytest.mark.parametrize("big", [1e300, math.inf])
    def test_psi_weight_above_the_budget_crosses_on_its_own_edge(self, big):
        # full 2-shift, psi = (big, 1), T = 3: the crossing prefixes are (), 2, 22 and 222
        lang = full_shift(2)
        got = ip.induced_sum(lang, const_weights(lang, 0.0), weights({1: big, 2: 1.0}), 3.0)
        assert got == pytest.approx(math.log(4), rel=1e-12)

    def test_cell_guard_defaults_to_max_words(self):
        for f in (ip.induced_sum, ip.characterization_sum):
            assert inspect.signature(f).parameters["max_cells"].default == MAX_WORDS

    def test_cell_guard(self):
        lang = full_shift(2)
        w0 = const_weights(lang, 0.0)
        w_psi = weights({1: 1.0, 2: 1.4142})
        # the widest level is n = 4: (last symbol, psi-sum) over a + 1.4142 b <= 6, a + b = 4,
        # gives 1 + 2 + 2 + 2 + 1 = 8 cells
        assert ip.induced_sum(lang, w0, w_psi, 6.0, max_cells=8) > 0
        with pytest.raises(ip.GuardError):
            ip.induced_sum(lang, w0, w_psi, 6.0, max_cells=7)

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
        assert induced_sum_spanning(lang, w0, w_psi, 3.0) == pytest.approx(
            ip.induced_sum(lang, w0, w_psi, 3.0), rel=1e-12
        )
        for _ in range(6):
            lang = random_sft(rng, 3)
            w_phi = random_weights(rng, lang, -0.5, 0.5)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            T = rng.uniform(1.0, 3.0)
            assert induced_sum_spanning(lang, w_phi, w_psi, T) == pytest.approx(
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


class TestHorizonGuard:
    """Horizons derived from T are bounded by MAX_DEPTH before anything is built."""

    # the last two span fewer than MAX_DEPTH levels in floats but more on the 1e-12 lattice,
    # where 4e-13 rounds to 0 and 1.4e-12 to 1e-12
    @pytest.mark.parametrize(
        "T,psi",
        [(1e9, 1.0), (MAX_DEPTH + 1, 1.0), (1e308, 1e-10), (1e-10, 4e-13), (1.4e-9, 1.4e-12)],
    )
    def test_huge_budget_refused_before_any_build(self, monkeypatch, T, psi):
        lang = golden_mean()

        def no_build(*_args):
            raise AssertionError("built a graph or a level sum past the horizon guard")

        monkeypatch.setattr(lang, "unit_graph", no_build)
        monkeypatch.setattr(induced, "_forward_sums", no_build)
        w0, w_psi = const_weights(lang, 0.0), const_weights(lang, psi)
        with pytest.raises(ip.GuardError):
            ip.induced_sum(lang, w0, w_psi, T)
        with pytest.raises(ip.GuardError):
            ip.characterization_sum(lang, w0, w_psi, 0.5, T)
        with pytest.raises(ip.GuardError):
            ip.characterization_scan(lang, w0, w_psi, [0.5], T)

    def test_default_cap_counts_the_budget_exactly(self):
        # floor(0.3 / 0.1) = 3 at 12 decimals (2.9999999999999996 in binary floats):
        # n_cap = 3 + 1 + 20
        lang = full_shift(2)
        _, n_cap = ip.characterization_sum(
            lang, const_weights(lang, 0.0), const_weights(lang, 0.1), 0.0, 0.3
        )
        assert n_cap == 24

    def test_horizon_at_the_limit_runs(self):
        lang = golden_mean()
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        _, n_cap = ip.characterization_sum(lang, w0, ones, 0.0, float(MAX_DEPTH))
        assert n_cap == MAX_DEPTH + 1 + 20
        # psi = 1: every word crosses the budget at its length-MAX_DEPTH prefix, and
        # the golden mean has F(n + 2) = round(g^(n + 2) / sqrt(5)) words of length n
        g = (1 + math.sqrt(5)) / 2
        log_count = (MAX_DEPTH + 2) * math.log(g) - 0.5 * math.log(5)
        value = ip.induced_sum(lang, w0, ones, float(MAX_DEPTH))
        assert value == pytest.approx(log_count, rel=1e-12)


class TestCharacterization:
    def test_convergent_above_pressure(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        [res] = ip.characterization_scan(lang, w0, ones, [math.log(2) + 0.1], 10.5)
        assert res.verdict == ip.CONVERGENT

    def test_divergent_below_pressure(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        [res] = ip.characterization_scan(lang, w0, ones, [math.log(2) - 0.1], 10.5)
        assert res.verdict == ip.DIVERGENT

    def test_critical_is_inconclusive(self):
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        [res] = ip.characterization_scan(lang, w0, ones, [math.log(2)], 10.5)
        assert res.verdict == ip.INCONCLUSIVE

    def test_partial_sum_matches_direct_series(self):
        # full 2-shift, psi = 1: level n>=11 contributes 2^n e^{-beta n}
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        beta = math.log(2) + 0.2
        log_sum, n_cap = ip.characterization_sum(lang, w0, ones, beta, 10.5, n_cap=40)
        direct = math.log(
            math.fsum(2**n * math.exp(-beta * n) for n in range(11, 41))
        )
        assert n_cap == 40
        assert log_sum == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("kind", ["golden-mean", "itinerary", "growing"])
    def test_partial_sum_against_word_enumeration(self, rng, kind):
        # every word of length <= n_cap whose psi-weight exceeds the budget,
        # enumerated through the raw presentation; psi spreads widely, so
        # some words exceed the budget levels before every word does.  The
        # growing language meets new units up to depth 10, past the budget
        # walk's last level, so the level sums run on a larger unit graph
        # than the walk needs.
        lang = {
            "golden-mean": golden_mean,
            "itinerary": lambda: random_itinerary(rng, 12, 3),
            "growing": lambda: golden_itinerary(10),
        }[kind]()
        w_phi = random_weights(rng, lang, -1.0, 1.0)
        w_psi = random_weights(rng, lang, 0.6, 2.5)
        beta, T = 0.7, 3.0
        budget = T * w_psi.tau
        n_full = math.floor(budget / min(w_psi.weights.values())) + 1
        n_cap = n_full + 14
        walk_units = lang.unit_graph(n_full).n_units
        log_sum, _ = ip.characterization_sum(lang, w_phi, w_psi, beta, T, n_cap=n_cap)
        if kind == "growing":
            assert walk_units < lang.unit_graph(n_cap).n_units
        terms = [
            math.exp(sum(w_phi[s] - beta * w_psi[s] for s in word))
            for n in range(1, n_cap + 1)
            for word in words(lang, n)
            if sum(w_psi[s] for s in word) > budget
        ]
        assert log_sum == pytest.approx(math.log(math.fsum(terms)), rel=1e-12)

    def test_partial_sum_counts_words_on_the_budget_as_inside(self):
        # full 2-shift, psi = 0.1, T = 0.3: the length-3 words land on the budget,
        # so exceeding starts at n = 4; the tilt is 0 - 10 * 0.1 = -1 per symbol
        lang = full_shift(2)
        log_sum, n_cap = ip.characterization_sum(
            lang, const_weights(lang, 0.0), const_weights(lang, 0.1), 10.0, 0.3
        )
        direct = math.log(math.fsum((2 / math.e) ** n for n in range(4, n_cap + 1)))
        assert log_sum == pytest.approx(direct, rel=1e-12)

    def test_partial_sum_cell_guard(self, monkeypatch):
        lang = full_shift(2)
        w0 = const_weights(lang, 0.0)
        w_psi = weights({1: 1.0, 2: 1.4142})
        ip.characterization_sum(lang, w0, w_psi, 1.0, 6.0, max_cells=8)  # see test_cell_guard
        with pytest.raises(ip.GuardError):
            ip.characterization_sum(lang, w0, w_psi, 1.0, 6.0, max_cells=7)
        # the verdict alone never walks the cells
        expected = ip.characterization_scan(lang, w0, w_psi, [1.0], 6.0)
        monkeypatch.setattr(induced, "_budget_walk", None)
        assert ip.characterization_scan(lang, w0, w_psi, [1.0], 6.0) == expected

    def test_partial_sum_solves_no_root(self, monkeypatch):
        # the independent route solves no Bowen root; the scan, which does, shows the patch bites
        lang = full_shift(2)
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        expected = ip.characterization_sum(lang, w0, ones, 1.0, 10.5)

        def no_root(*_args, **_kwargs):
            raise AssertionError("the partial sum solved a Bowen root")

        monkeypatch.setattr(induced, "bowen_root", no_root)
        assert ip.characterization_sum(lang, w0, ones, 1.0, 10.5) == expected
        with pytest.raises(AssertionError):
            ip.characterization_scan(lang, w0, ones, [1.0], 10.5)

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

    def test_scan_point_equals_single_point_scan(self, rng):
        # one root for the grid; no point may depend on its neighbours
        for lang in (golden_mean(), random_sft(rng, 4), random_sft(rng, 5)):
            w_phi = random_weights(rng, lang, -1.0, 1.0)
            w_psi = random_weights(rng, lang, 0.5, 1.5)
            betas = [rng.uniform(-1.0, 3.0) for _ in range(9)]
            results = ip.characterization_scan(lang, w_phi, w_psi, betas, 4.0)
            for beta, res in zip(betas, results):
                assert ip.characterization_scan(lang, w_phi, w_psi, [beta], 4.0) == [res]

    def test_empty_grid(self):
        lang = golden_mean()
        w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
        assert ip.characterization_scan(lang, w0, ones, [], 10.5) == []


def _flip_brackets(lang, w_phi, w_psi, betas, T, root) -> bool:
    flip = ip.verdict_flip(ip.characterization_scan(lang, w_phi, w_psi, betas, T))
    return flip is not None and flip[0] < root < flip[1]


@st.composite
def relations(draw):
    """(symbols, edges, phi, psi) on 1-8 symbols, each with 1-3 successors."""
    q = draw(st.integers(1, 8))
    symbols = list(range(1, q + 1))
    succ = [draw(st.sets(st.sampled_from(symbols), min_size=1, max_size=3)) for _ in symbols]
    edges = sorted((i, j) for i, js in zip(symbols, succ) for j in js)
    phi = draw(st.lists(st.floats(-3.0, 3.0), min_size=q, max_size=q))
    psi = draw(st.lists(st.floats(0.5, 2.0), min_size=q, max_size=q))
    return symbols, edges, dict(zip(symbols, phi)), dict(zip(symbols, psi))


@st.composite
def finite_state_systems(draw):
    """(step, cell, phi, psi): a self-map of 1-8 states in 1-3 cells, weights per cell."""
    n = draw(st.integers(1, 8))
    cells = draw(st.integers(1, min(n, 3)))
    step = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    phi = draw(st.lists(st.floats(-3.0, 3.0), min_size=cells, max_size=cells))
    psi = draw(st.lists(st.floats(0.5, 2.0), min_size=cells, max_size=cells))
    cell = [1 + k % cells for k in range(n)]
    return step, cell, dict(enumerate(phi, 1)), dict(enumerate(psi, 1))


class TestVerdictAgainstIndependentRoots:
    """The flip brackets a root found without the library: the series of
    phi - beta*psi converges exactly above the root of pressure(phi - beta*psi)."""

    def test_five_cycle_flip_brackets_the_cycle_ratio(self):
        # period 5: the root is sum(phi)/sum(psi) = -1/5
        lang = ip.compile_sft([1, 2, 3, 4, 5], [(k, k % 5 + 1) for k in range(1, 6)])
        w_phi = weights({1: 3.0, 2: -2.0, 3: -2.0, 4: -2.0, 5: 2.0})
        betas = [-0.4, -0.3, -0.25, -0.2, -0.15, -0.1]
        results = ip.characterization_scan(lang, w_phi, const_weights(lang, 1.0), betas, 3.0)
        assert ip.verdict_flip(results) == (-0.25, -0.15)
        assert results[3].verdict == ip.INCONCLUSIVE

    def test_pure_cycles_flip_brackets_the_cycle_ratio(self):
        rng = random.Random(5)
        misses = []
        for p in range(1, 14):
            lang = ip.compile_sft(list(range(1, p + 1)), [(k, k % p + 1) for k in range(1, p + 1)])
            for _ in range(5):
                w_phi = random_weights(rng, lang, -3.0, 3.0)
                w_psi = random_weights(rng, lang, 0.5, 2.0)
                root = math.fsum(w_phi.weights.values()) / math.fsum(w_psi.weights.values())
                betas = [root + 0.05 + 0.1 * k for k in range(-11, 11)]
                if not _flip_brackets(lang, w_phi, w_psi, betas, 3.0, root):
                    misses.append(p)
        assert misses == []

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(relations(), st.floats(0.01, 0.09))
    def test_relation_flip_brackets_the_dense_root(self, relation, shift):
        symbols, edges, phi, psi = relation
        reach = (max(map(abs, phi.values())) + math.log(len(symbols))) / min(psi.values()) + 1.0

        def pressure(beta):
            return dense_log_radius(symbols, edges, {s: phi[s] - beta * psi[s] for s in symbols})

        root = bisect_root(pressure, -reach, reach, 80)
        betas = [root + shift + 0.1 * k for k in range(-10, 10)]
        lang = ip.compile_sft(symbols, edges)
        assert _flip_brackets(lang, weights(phi), weights(psi), betas, 3.0, root)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(finite_state_systems(), st.floats(0.01, 0.09))
    def test_system_flip_brackets_the_best_cycle_ratio(self, system, shift):
        step, cell, phi, psi = system
        root = -math.inf
        for x in range(len(step)):
            for _ in range(len(step)):  # onto the cycle x falls into
                x = step[x]
            cycle, y = [x], step[x]
            while y != x:
                cycle.append(y)
                y = step[y]
            ratio = math.fsum(phi[cell[y]] for y in cycle) / math.fsum(psi[cell[y]] for y in cycle)
            root = max(root, ratio)
        names = tuple(f"x{k}" for k in range(len(step)))
        sys = ip.FiniteStateSystem(
            names, {(names[k], "u"): names[j] for k, j in enumerate(step)}, names,
            dict(zip(names, cell)),
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {i: ("u",) for i in phi}))
        betas = [root + shift + 0.1 * k for k in range(-10, 10)]
        assert _flip_brackets(lang, weights(phi), weights(psi), betas, 3.0, root)

    def test_one_root_per_grid(self, monkeypatch):
        # the grid's verdicts read one certificate: no level sums, and as many
        # oracle calls for 21 points as for one
        lang = golden_mean()
        w_phi, w_psi = weights({1: 0.3, 2: -0.4}), weights({1: 1.0, 2: 1.5})

        def no_level_sums(*_args):
            raise AssertionError("the scan computed level sums")

        monkeypatch.setattr(induced, "_forward_sums", no_level_sums)
        calls = []
        oracle = capacity.pressure_difference
        monkeypatch.setattr(capacity, "pressure_difference", lambda *a: calls.append(a) or oracle(*a))
        ip.characterization_scan(lang, w_phi, w_psi, [0.1], 3.0)
        one = len(calls)
        ip.characterization_scan(lang, w_phi, w_psi, [0.1 * k for k in range(21)], 3.0)
        assert len(calls) == 2 * one

    def test_empty_grid_computes_no_root(self, monkeypatch):
        monkeypatch.setattr(induced, "bowen_root", None)
        lang = golden_mean()
        assert ip.characterization_scan(lang, *[const_weights(lang, 1.0)] * 2, [], 3.0) == []
