"""Capacity pressure, spectral oracle, and the Bowen-equation solver."""

import math

import numpy as np
import pytest

import invpressure as ip
from invpressure import capacity
from invpressure.capacity import _perron_radius, level_log_sums
from conftest import (
    bisect_root,
    const_weights,
    cubic_time_scale_root,
    full_shift,
    golden_mean,
    random_sft,
    random_weights,
    single_branch,
    weights,
)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


class TestSeparatedSum:
    def test_full_2_shift_counting(self):
        lang = full_shift(2)
        assert ip.separated_sum(lang, const_weights(lang, 0.0), 10) == pytest.approx(
            math.log(1024), rel=1e-14
        )

    def test_weighted_against_flat_sum_oracle(self):
        lang = full_shift(2)
        w = weights({1: 0.0, 2: math.log(2)})
        oracle = math.log(
            math.fsum(
                math.exp(sum({1: 0.0, 2: math.log(2)}[s] for s in word))
                for word in lang.words(3)
            )
        )
        got = ip.separated_sum(lang, w, 3)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(math.log(27), rel=1e-12)

    def test_golden_mean_counting(self):
        lang = golden_mean()
        assert ip.separated_sum(lang, const_weights(lang, 0.0), 3) == pytest.approx(
            math.log(5), rel=1e-14
        )


class TestSpanningSum:
    def test_equals_separated_everywhere(self, rng):
        for _ in range(10):
            lang = random_sft(rng, rng.choice((2, 3)))
            w = random_weights(rng, lang, -1.5, 1.5)
            n = rng.randrange(1, 6)
            assert ip.spanning_sum(lang, w, n) == pytest.approx(
                ip.separated_sum(lang, w, n), rel=1e-12
            )

    def test_full_3_shift(self):
        lang = full_shift(3)
        assert ip.spanning_sum(lang, const_weights(lang, 0.0), 2) == pytest.approx(
            math.log(9), rel=1e-14
        )

    def test_golden_mean_weighted(self):
        lang = golden_mean()
        w = weights({1: 1.0, 2: -1.0})
        # words 11, 12, 21 carry weights 2, 0, 0
        assert ip.spanning_sum(lang, w, 2) == pytest.approx(
            math.log(math.exp(2) + 2), rel=1e-13
        )


class TestCapacityPressure:
    def test_full_shift_constant_weight_exact(self):
        for q in (2, 3, 5):
            lang = full_shift(q)
            c = 0.37
            est = ip.capacity_pressure(lang, const_weights(lang, c), 50, 10)
            expect = math.log(q) + c
            for _n, v in est.values:
                assert v == pytest.approx(expect, rel=1e-12)
            assert est.limsup_estimate == pytest.approx(expect, rel=1e-12)

    def test_golden_mean_matches_spectral_limit(self):
        lang = golden_mean()
        est = ip.capacity_pressure(lang, const_weights(lang, 0.0), 200, 10)
        assert est.oracle == pytest.approx(LOG_GOLDEN, abs=1e-10)
        assert abs(est.limsup_estimate - est.oracle) < 0.01

    def test_single_word_language_rate(self):
        lang = single_branch()
        w = ip.PerSymbolWeights({1: 0.84}, 2)
        est = ip.capacity_pressure(lang, w, 30, 5)
        assert est.limsup_estimate == pytest.approx(0.84 / 2, rel=1e-12)
        assert est.oracle == pytest.approx(0.84 / 2, rel=1e-12)

    def test_liminf_below_limsup(self, rng):
        lang = random_sft(rng, 3)
        est = ip.capacity_pressure(lang, random_weights(rng, lang, -1, 1), 40, 8)
        assert est.liminf_estimate <= est.limsup_estimate

    def test_itinerary_oracle_is_cycle_mean(self):
        sys = ip.FiniteStateSystem(
            ("a", "b", "c"),
            {("a", "u"): "b", ("b", "u"): "a", ("c", "u"): "a"},
            ("a", "b", "c"),
            {"a": 1, "b": 2, "c": 2},
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        w = weights({1: 1.0, 2: 3.0})
        est = ip.capacity_pressure(lang, w, 60, 10)
        # single cycle a<->b with symbol weights 1 and 3
        assert est.oracle == pytest.approx(2.0, rel=1e-12)
        assert est.limsup_estimate == pytest.approx(2.0, abs=0.1)


def spread_weights(rng, symbols):
    """Mixed-sign weights near +-300: level sums leave the range of exp within
    three steps, and unit masses at one level can differ by more than e^745."""
    return ip.PerSymbolWeights(
        {s: (-1) ** k * rng.uniform(250.0, 350.0) for k, s in enumerate(symbols)}, 1
    )


def random_itinerary(rng, states: int, cells: int):
    """Itinerary language of a random self-map; its units are merging state sets."""
    names = [f"x{k}" for k in range(states)]
    step = {x: rng.choice(names) for x in names}
    cell_of = {x: 1 + k % cells for k, x in enumerate(names)}
    sys = ip.FiniteStateSystem(
        tuple(names), {(x, "u"): y for x, y in step.items()}, tuple(names), cell_of
    )
    spec = ip.PartitionSpec(1, {i: ("u",) for i in range(1, cells + 1)})
    return ip.itinerary_language(sys, spec)


class TestLevelSumKernel:
    """The compiled log-space recursion against word enumeration."""

    @pytest.mark.parametrize("kind", ["sft", "itinerary"])
    def test_matches_separated_sum_with_spread_weights(self, rng, kind):
        for _ in range(4):
            if kind == "sft":
                lang = random_sft(rng, rng.choice((3, 4)))
            else:
                lang = random_itinerary(rng, 12, 3)
            w = spread_weights(rng, lang.symbols)
            est = ip.capacity_pressure(lang, w, 10, 1)
            for n, value in est.values:
                assert value == pytest.approx(ip.separated_sum(lang, w, n) / n, rel=1e-12)

    def test_table_blocks_do_not_change_rows(self, rng, monkeypatch):
        lang = random_sft(rng, 4)
        tables = [random_weights(rng, lang, -2.0, 2.0) for _ in range(7)]
        whole = level_log_sums(lang, tables, 40)
        monkeypatch.setattr(capacity, "_BATCH_FLOATS", 1)  # one table per block
        assert np.array_equal(level_log_sums(lang, tables, 40), whole)
        assert np.array_equal(level_log_sums(lang, tables[3:4], 40), whole[3:4])

    def test_units_expand_once_per_language(self, rng):
        lang = random_itinerary(rng, 12, 3)
        calls = []
        expand = lang.unit_successors
        lang.unit_successors = lambda unit: calls.append(unit) or expand(unit)
        w = spread_weights(rng, lang.symbols)
        ip.capacity_pressure(lang, w, 30, 5)
        ip.capacity_pressure(lang, w, 60, 5)
        assert len(calls) == len(set(calls))
        # every expanded unit but the root (expanded by initial_units) is a source
        assert len(calls) == len(np.unique(lang.unit_graph(60).src)) - 1

    def test_unit_walk_stops_at_the_requested_depth(self):
        # cycles of coprime lengths 2..23, labelled 1, each fed by a tail state
        # labelled 2: the tail class visits about 2.2e8 distinct state sets
        step, cell_of = {}, {}
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            cycle = [f"c{p}_{k}" for k in range(p)]
            step.update({x: cycle[(k + 1) % p] for k, x in enumerate(cycle)})
            cell_of.update({x: 1 for x in cycle})
            step[f"t{p}"], cell_of[f"t{p}"] = cycle[0], 2
        names = tuple(step)
        sys = ip.FiniteStateSystem(
            names, {(x, "u"): y for x, y in step.items()}, names, cell_of
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        w = weights({1: 0.25, 2: -1.5})
        est = ip.capacity_pressure(lang, w, 30, 5)
        assert lang.unit_graph(30).n_units <= 30 * len(names) + 1
        for n, value in est.values[:10]:
            assert value == pytest.approx(ip.separated_sum(lang, w, n) / n, rel=1e-12)
        ip.capacity_pressure(lang, w, 120, 10)
        assert lang.unit_graph(120).n_units <= 120 * len(names) + 1


#: reducible relations: (symbols, edges, weights)
REDUCIBLE = {
    "two-loops-equal": ([1, 2], [(1, 1), (1, 2), (2, 2)], {1: 0.0, 2: 0.0}),
    "two-loops-upstream": ([1, 2], [(1, 1), (1, 2), (2, 2)], {1: 0.5, 2: 0.0}),
    "two-loops-downstream": ([1, 2], [(1, 1), (1, 2), (2, 2)], {1: 0.0, 2: 0.5}),
    # a dense block on 1..4 feeding, by one edge, a plain cycle on 5..8
    "block-feeding-cycle": (
        list(range(1, 9)),
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 1), (2, 4), (3, 1), (4, 2), (4, 4),
         (5, 6), (6, 7), (7, 8), (8, 5), (3, 6)],
        {1: 0.31, 2: 0.87, 3: 0.05, 4: 0.62, 5: -0.2, 6: -0.74, 7: -0.41, 8: -0.93},
    ),
}


def dense_log_radius(symbols, edges, table) -> float:
    idx = {s: k for k, s in enumerate(symbols)}
    M = np.zeros((len(symbols), len(symbols)))
    for i, j in edges:
        M[idx[i], idx[j]] = math.exp(table[i])
    return math.log(float(np.max(np.abs(np.linalg.eigvals(M)))))


class TestSpectralPressure:
    @pytest.mark.parametrize("case", REDUCIBLE.values(), ids=REDUCIBLE.keys())
    def test_reducible_relation_takes_block_radius(self, case):
        symbols, edges, table = case
        got = ip.spectral_pressure(ip.compile_sft(symbols, edges), weights(table))
        if len(symbols) == 2:
            # each block is one loop, so the radius is its largest loop weight
            assert got == pytest.approx(max(table.values()), abs=1e-13)
        else:
            assert got == pytest.approx(dense_log_radius(symbols, edges, table), abs=1e-11)

    def test_periodic_block_with_spread_weights(self):
        # cycles whose weights spread by 600 and more: the radius is exp of the cycle mean
        for p, half_spread in [(2, 300.0), (3, 300.0), (7, 300.0), (2, 800.0), (3, 600.0),
                               (5, 600.0), (11, 600.0)]:
            table = {k: half_spread if k % 2 else -half_spread for k in range(1, p + 1)}
            lang = ip.compile_sft(list(table), [(k, k % p + 1) for k in table])
            mean = math.fsum(table.values()) / p
            assert ip.spectral_pressure(lang, weights(table)) == pytest.approx(mean, abs=1e-9)

    @pytest.mark.parametrize(
        "a, b", [(-0.481, -2405.0), (-300.0, -2400.0), (0.0, 2000.0), (700.0, -700.0), (0.3, -0.2)]
    )
    def test_golden_mean_with_spread_weights(self, a, b):
        # rho solves rho^2 = e^a rho + e^(a+b): log rho = a + log((1 + s)/2), s = sqrt(1 + 4e^(b-a))
        d = b - a
        if d > 0:
            log_s = 0.5 * d + math.log(2.0) + 0.5 * math.log1p(0.25 * math.exp(-d))
        else:
            log_s = 0.5 * math.log1p(4.0 * math.exp(d))
        want = a + log_s - math.log(2.0) + math.log1p(math.exp(-log_s))
        got = ip.spectral_pressure(golden_mean(), weights({1: a, 2: b}))
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_full_shift_with_spread_weights(self, rng):
        # M = exp(w) 1^T has rank one, so its radius is sum_i exp(w_i)
        for q in (3, 5, 8):
            lang = full_shift(q)
            for spread in (100.0, 1500.0, 4000.0):
                table = {s: rng.uniform(-spread, 0.0) for s in lang.symbols}
                top = max(table.values())
                want = top + math.log(math.fsum(math.exp(v - top) for v in table.values()))
                assert ip.spectral_pressure(lang, weights(table)) == pytest.approx(want, abs=1e-9)

    def test_random_relations_with_spread_weights(self, rng):
        # the level sums grow like n^(k-1) rho^n, k <= q linked blocks of equal radius
        for _ in range(40):
            q = rng.choice((3, 4, 6, 9))
            lang = random_sft(rng, q)
            spread = rng.choice((500.0, 3000.0))
            w = weights({s: rng.uniform(-spread, spread) for s in lang.symbols})
            sums = level_log_sums(lang, [w], 600)[0]
            growth = (sums[-1] - sums[-61]) / 60
            slack = q * math.log(600 / 540) / 60
            assert ip.spectral_pressure(lang, w) == pytest.approx(growth, abs=slack)

    def test_iteration_cap_raises_guard(self, monkeypatch):
        seven_cycle = np.roll(np.diag(np.arange(1.0, 8.0)), 1, axis=1)
        assert _perron_radius(seven_cycle) == pytest.approx(5040 ** (1 / 7), rel=1e-12)
        monkeypatch.setattr(capacity, "_MAX_ITER", 3)
        with pytest.raises(ip.GuardError):
            _perron_radius(seven_cycle)

    def test_full_2_shift(self):
        lang = full_shift(2)
        assert ip.spectral_pressure(lang, const_weights(lang, 0.0)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_golden_mean_closed_form(self):
        assert ip.spectral_pressure(golden_mean(), weights({1: 0.0, 2: 0.0})) == pytest.approx(
            0.4812118250596, abs=1e-10
        )

    def test_row_weight_shift(self):
        lang = full_shift(2)
        w = weights({1: 0.0, 2: math.log(2)})
        assert ip.spectral_pressure(lang, w) == pytest.approx(math.log(3), abs=1e-11)

    def test_tau_normalization(self):
        lang = full_shift(2)
        w = ip.PerSymbolWeights({1: 0.0, 2: 0.0}, 3)
        assert ip.spectral_pressure(lang, w) == pytest.approx(math.log(2) / 3, abs=1e-12)

    def test_periodic_relation_converges(self):
        lang = ip.compile_sft([1, 2], [(1, 2), (2, 1)])
        w = weights({1: 0.5, 2: 1.5})
        # two-cycle: radius is the geometric mean of the step factors
        assert ip.spectral_pressure(lang, w) == pytest.approx(1.0, abs=1e-11)

    def test_finite_n_error_envelope(self, rng):
        langs = [golden_mean(), random_sft(rng, 3, extra=0.7), random_sft(rng, 4, extra=0.7)]
        for lang in langs:
            w = random_weights(rng, lang, -0.5, 0.5)
            exact = ip.spectral_pressure(lang, w)
            sums = {n: ip.capacity_pressure(lang, w, n, 1).values[-1][1] for n in (50, 100, 200)}
            envelope = max(50 * abs(sums[50] - exact), 100 * abs(sums[100] - exact))
            assert 200 * abs(sums[200] - exact) <= envelope * (1 + 1e-9) + 1e-9


class TestPressureDifference:
    def test_beta_zero_reduces_to_pressure(self):
        lang = golden_mean()
        w0 = const_weights(lang, 0.0)
        w_psi = weights({1: 1.0, 2: 2.0})
        assert ip.pressure_difference(lang, w0, w_psi, 0.0) == pytest.approx(
            ip.spectral_pressure(lang, w0), abs=1e-14
        )

    def test_full_shift_closed_form(self):
        lang = full_shift(3)
        c, d = 0.4, 1.3
        for beta in (-1.0, 0.0, 0.7, 2.5):
            got = ip.pressure_difference(lang, const_weights(lang, c), const_weights(lang, d), beta)
            assert got == pytest.approx(math.log(3) + c - beta * d, abs=1e-11)

    def test_slope_bound(self, rng):
        for _ in range(10):
            lang = random_sft(rng, 3)
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            beta = rng.uniform(-1, 1)
            h = rng.uniform(0.01, 1.0)
            lhs = ip.pressure_difference(lang, w_phi, w_psi, beta + h)
            rhs = ip.pressure_difference(lang, w_phi, w_psi, beta) - h * w_psi.rate_min()
            assert lhs <= rhs + 1e-10


class TestFiniteHorizonBounds:
    def test_lipschitz_between_tilts(self, rng):
        for _ in range(20):
            lang = random_sft(rng, rng.choice((2, 3)))
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            b1, b2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            n = rng.randrange(1, 8)
            s1 = ip.separated_sum(lang, ip.combine_weights(w_phi, w_psi, b1), n)
            s2 = ip.separated_sum(lang, ip.combine_weights(w_phi, w_psi, b2), n)
            assert abs(s1 - s2) / n <= w_psi.rate_max() * abs(b1 - b2) + 1e-10

    def test_strict_decrease_at_finite_n(self, rng):
        for _ in range(20):
            lang = random_sft(rng, 3)
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            b1 = rng.uniform(-1, 1)
            b2 = b1 + rng.uniform(0.05, 1.0)
            n = rng.randrange(1, 8)
            f1 = ip.separated_sum(lang, ip.combine_weights(w_phi, w_psi, b1), n) / n
            f2 = ip.separated_sum(lang, ip.combine_weights(w_phi, w_psi, b2), n) / n
            assert f2 <= f1 - (b2 - b1) * w_psi.rate_min() + 1e-10


class TestBowenRoot:
    def test_full_shift_closed_form(self):
        lang = full_shift(2)
        cert = ip.bowen_root(lang, const_weights(lang, 0.0), const_weights(lang, 1.0))
        assert cert.beta_hat == pytest.approx(math.log(2), abs=1e-9)
        assert cert.error_bound <= 1e-9

    def test_unit_scaling_recovers_plain_pressure(self, rng):
        lang = random_sft(rng, 3)
        w_phi = random_weights(rng, lang, -1, 1)
        ones = const_weights(lang, 1.0)
        cert = ip.bowen_root(lang, w_phi, ones)
        assert cert.beta_hat == pytest.approx(ip.spectral_pressure(lang, w_phi), abs=1e-8)

    def test_unit_scaling_with_two_step_words(self):
        # a unit potential on the control range compiles to w_psi(i) = tau
        crange = ip.ControlRange(
            ("u", "v"),
            {"phi": {"u": 0.2, "v": -0.4}, "one": {"u": 1.0, "v": 1.0}},
        )
        spec = ip.PartitionSpec(2, {1: ("u", "u"), 2: ("u", "v")})
        lang = ip.compile_sft([1, 2], [(1, 1), (1, 2), (2, 1), (2, 2)], spec)
        w_phi = ip.derive_symbol_weights(crange, spec, "phi")
        w_psi = ip.derive_symbol_weights(crange, spec, "one")
        assert all(v == 2.0 for v in w_psi.weights.values())
        cert = ip.bowen_root(lang, w_phi, w_psi)
        assert cert.beta_hat == pytest.approx(ip.spectral_pressure(lang, w_phi), abs=1e-8)

    def test_golden_mean_weighted_against_cubic_oracle(self):
        cert = ip.bowen_root(golden_mean(), weights({1: 0.0, 2: 0.0}), weights({1: 1.0, 2: 2.0}))
        beta_star = -math.log(cubic_time_scale_root())
        assert abs(cert.residual) / 1.0 <= 1e-9
        assert cert.beta_hat == pytest.approx(beta_star, abs=1e-6)

    def test_certificate_brackets_zero(self, rng):
        for _ in range(10):
            lang = random_sft(rng, rng.choice((3, 4)))
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            cert = ip.bowen_root(lang, w_phi, w_psi)
            up = ip.pressure_difference(lang, w_phi, w_psi, cert.beta_hat - cert.error_bound)
            dn = ip.pressure_difference(lang, w_phi, w_psi, cert.beta_hat + cert.error_bound)
            assert up >= -1e-13
            assert dn <= 1e-13

    def test_remark_bounds_on_random_instances(self, rng):
        for _ in range(20):
            lang = random_sft(rng, rng.choice((2, 3, 4)))
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            cert = ip.bowen_root(lang, w_phi, w_psi)
            norm_phi = max(abs(v) for v in w_phi.weights.values())
            m = min(w_psi.weights.values())
            q = len(lang.symbols)
            assert cert.beta_hat >= -norm_phi / m - 1e-8
            assert cert.beta_hat <= math.log(q) / m + norm_phi / m + 1e-8

    def test_nonpositive_psi_rejected(self):
        lang = full_shift(2)
        with pytest.raises(ip.PreconditionError):
            ip.bowen_root(lang, const_weights(lang, 0.0), weights({1: 1.0, 2: -0.1}))

    def test_root_on_itinerary_language(self):
        sys = ip.FiniteStateSystem(
            ("a", "b"), {("a", "u"): "b", ("b", "u"): "a"}, ("a", "b"), {"a": 1, "b": 2}
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        w_phi = weights({1: 0.6, 2: 1.0})
        w_psi = weights({1: 1.0, 2: 3.0})
        cert = ip.bowen_root(lang, w_phi, w_psi)
        # single 2-cycle: root solves cycle-mean(phi) = beta * cycle-mean(psi)
        assert cert.beta_hat == pytest.approx(1.6 / 4.0, abs=1e-9)

    def test_negative_pressure_bracket(self):
        lang = single_branch()
        cert = ip.bowen_root(lang, weights({1: -0.8}), weights({1: 2.0}))
        oracle = bisect_root(lambda b: -0.8 - b * 2.0, -10, 10)
        assert cert.beta_hat == pytest.approx(oracle, abs=1e-9)
        assert cert.beta_hat < 0
