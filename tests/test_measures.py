"""Cylinder measures, lower pressure estimates, and the variational check."""

import itertools
import math
import random

import numpy as np
import pytest

import invpressure as ip
from invpressure.symbolic import MAX_DEPTH
from conftest import (
    const_weights,
    full_shift,
    golden_itinerary,
    golden_mean,
    random_itinerary,
    random_sft,
    random_weights,
    reference_lower_bs,
    reference_prefix_masses,
    successors,
    weights,
    word_weight,
    words,
)

ALL = ip.SubsetSpec.whole_space()
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
GOLDEN = (1 + math.sqrt(5)) / 2


class TestCylinderMasses:
    def test_fair_coin_uniform(self):
        lang = full_shift(2)
        mu = ip.cylinder_masses(ip.bernoulli_measure(lang, [0.5, 0.5]), lang, 3)
        assert len(mu.masses) == 8
        for m in mu.masses.values():
            assert m == pytest.approx(0.125, rel=1e-15)

    def test_max_entropy_chain_on_golden_mean(self):
        lang = golden_mean()
        parry = ip.parry_measure(lang)
        pi0 = GOLDEN**2 / (1 + GOLDEN**2)
        assert parry.stationary[0] == pytest.approx(pi0, abs=1e-12)
        mu = ip.cylinder_masses(parry, lang, 2)
        # one step from symbol 1 splits 1/g : 1/g^2; symbol 2 is forced back to 1
        assert mu.mass((1, 1)) == pytest.approx(pi0 / GOLDEN, abs=1e-12)
        assert mu.mass((1, 2)) == pytest.approx(pi0 / GOLDEN**2, abs=1e-12)
        assert mu.mass((2, 1)) == pytest.approx(1 - pi0, abs=1e-12)
        assert mu.mass((2, 2)) == 0.0  # not an admissible cylinder

    def test_support_violation_rejected(self):
        lang = golden_mean()
        with pytest.raises(ip.PreconditionError):
            ip.bernoulli_measure(lang, [0.5, 0.5])  # puts mass on 2->2

    def test_cylinder_walk_guard(self):
        # depth 10 of the full 2-shift visits 2 + 4 + ... + 2^10 = 2^11 - 2 cylinders
        lang = full_shift(2)
        mu = ip.bernoulli_measure(lang, [0.5, 0.5])
        assert len(ip.cylinder_masses(mu, lang, 10, max_nodes=2**11 - 2).masses) == 2**10
        with pytest.raises(ip.GuardError):
            ip.cylinder_masses(mu, lang, 10, max_nodes=2**11 - 3)

    def test_walk_at_the_depth_limit(self):
        # a 2-cycle has two words at every depth, so its walk at the depth
        # limit is cheap, and it runs in one frame at any depth
        lang = ip.compile_sft([1, 2], [(1, 2), (2, 1)])
        mu = ip.cylinder_masses(ip.parry_measure(lang), lang, MAX_DEPTH)
        assert list(mu.masses) == [(2, 1) * (MAX_DEPTH // 2), (1, 2) * (MAX_DEPTH // 2)]
        assert mu.masses == pytest.approx({word: 0.5 for word in mu.masses}, rel=1e-12)
        assert mu.mass((1, 2, 1)) == mu.masses[(1, 2) * (MAX_DEPTH // 2)]
        _check_against_prefix_reference(mu, const_weights(lang, 1.0))

    def test_point_mass_on_fixed_itinerary(self):
        lang = full_shift(2)
        mu = ip.CylinderMeasure(lang, 4, {(1, 1, 1, 1): 1.0})
        for n in range(1, 5):
            assert mu.mass((1,) * n) == 1.0
            assert mu.mass((2,) + (1,) * (n - 1)) == 0.0

    def test_refinement_consistency(self):
        lang = golden_mean()
        mu = ip.cylinder_masses(ip.parry_measure(lang), lang, 6)
        for n in range(1, 6):
            for word in words(lang, n):
                kids = math.fsum(
                    mu.mass(word + (nxt,)) for nxt in successors(lang, word[-1])
                )
                assert kids == pytest.approx(mu.mass(word), rel=1e-12, abs=1e-15)

    def test_itinerary_language_masses(self):
        # bit strings without "11", shifted left with a 0 coming in: up to
        # depth D the itineraries are the golden-mean words (symbol 1 + bit),
        # and the units are the merging sets of states
        D = 6
        states = tuple(
            x for x in (format(k, f"0{D}b") for k in range(2**D)) if "11" not in x
        )
        sys = ip.FiniteStateSystem(
            states, {(x, "u"): x[1:] + "0" for x in states}, states,
            {x: 1 + int(x[0]) for x in states},
        )
        lang = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        parry = ip.parry_measure(golden_mean())
        mu = ip.cylinder_masses(parry, lang, D)
        assert set(mu.masses) == set(words(lang, D)) == set(words(golden_mean(), D))
        for word, m in mu.masses.items():
            chain = parry.stationary[word[0] - 1]
            for a, b in zip(word, word[1:]):
                chain *= parry.matrix[a - 1][b - 1]
            assert m == pytest.approx(chain, rel=1e-12)

    def test_masses_must_sum_to_one(self):
        lang = full_shift(2)
        with pytest.raises(ip.PreconditionError):
            ip.CylinderMeasure(lang, 2, {(1, 1): 0.7})

    @pytest.mark.parametrize("kind", ["sft", "itinerary"])
    def test_measure_missing_a_symbol_is_refused(self, rng, kind):
        lang = full_shift(3) if kind == "sft" else random_itinerary(rng, 12, 3)
        assert lang.symbols == (1, 2, 3)
        mu = ip.bernoulli_measure(full_shift(2), [0.5, 0.5])
        with pytest.raises(ip.PreconditionError, match="does not match"):
            ip.cylinder_masses(mu, lang, 3)


class TestMarkovConstruction:
    @pytest.mark.parametrize(
        "matrix", [[[0.5, 0.5, 0.0]], [[0.5, 0.5], [1.0]], [[1.0], [1.0]], [[0.5, 0.5]] * 3]
    )
    def test_matrix_must_be_q_by_q(self, matrix):
        with pytest.raises(ip.PreconditionError, match="2 rows of 2 probabilities"):
            ip.markov_measure(golden_mean(), matrix)

    def test_bernoulli_is_the_chain_with_equal_rows(self):
        lang = full_shift(3)
        p = [0.2, 0.3, 0.5]
        rows = (tuple(p),) * 3
        assert ip.bernoulli_measure(lang, p) == ip.MarkovMeasure(lang.symbols, rows, tuple(p))
        assert ip.bernoulli_measure(lang, p) == ip.markov_measure(lang, [p] * 3, p)
        for bad in ([0.5, 0.5], [0.2, 0.3, 0.6], [-0.5, 1.0, 0.5]):
            with pytest.raises(ip.PreconditionError):
                ip.bernoulli_measure(lang, bad)

    def test_rows_sum_to_one_within_an_absolute_tolerance(self):
        lang = full_shift(2)
        ip.markov_measure(lang, [[0.5, 0.5 + 5e-10], [0.5, 0.5]])
        with pytest.raises(ip.PreconditionError, match="rows must sum to 1"):
            ip.markov_measure(lang, [[0.5, 0.500009], [0.5, 0.5]])

    def test_support_check_reports_the_first_forbidden_transition(self, rng):
        mu = ip.bernoulli_measure(full_shift(5), [0.2] * 5)
        for _ in range(20):
            lang = random_sft(rng, 5, 0.3)
            syms = lang.symbols
            first = next(((i, j) for i in syms for j in syms if j not in successors(lang, i)), None)
            if first is None:
                mu.check_support(lang)
                continue
            with pytest.raises(ip.PreconditionError, match=f"transition {first[0]}->{first[1]}$"):
                mu.check_support(lang)

    def test_parry_stationary_vector_is_the_perron_product(self, rng):
        # pi(a) is proportional to u(a) v(a), u and v the left and right Perron vectors
        for _ in range(10):
            lang = random_sft(rng, 6)
            eigvals, eigvecs = np.linalg.eig(lang.adjacency)
            v = np.abs(np.real(eigvecs[:, np.argmax(np.real(eigvals))]))
            eigvals, eigvecs = np.linalg.eig(lang.adjacency.T)
            u = np.abs(np.real(eigvecs[:, np.argmax(np.real(eigvals))]))
            expected = u * v / (u @ v)
            parry = ip.parry_measure(lang)
            assert np.allclose(parry.stationary, expected, rtol=0.0, atol=1e-12)

    def test_parry_refuses_a_zero_in_the_perron_vector(self):
        relations = [
            # 1->1, 1->2, 2->2: the Perron vector vanishes on symbol 1
            ([1, 2], [(1, 1), (1, 2), (2, 2)]),
            # a 4-cycle feeding a loop, both of radius 1: the Perron vector vanishes on
            # the cycle, where LAPACK returns rounding noise such as 4.4e-16
            (range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 5)]),
            # a 4-symbol block feeding the full 2-shift, both of radius 2, whose
            # computed log radii differ by 1.4e-13: a tie within the oracle's tolerance
            (range(1, 7), [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1), (4, 2), (4, 3), (4, 4),
                           (1, 5), (5, 5), (5, 6), (6, 5), (6, 6)]),
        ]
        for symbols, edges in relations:
            lang = ip.compile_sft(symbols, edges)
            # the suite turns RuntimeWarnings into errors, so a division by zero fails here
            with pytest.raises(ip.PreconditionError, match="Perron vector has a zero entry"):
                ip.parry_measure(lang)

    def test_parry_accepts_by_reachability(self):
        # accepted exactly when one block attains the top radius, every symbol
        # reaches it and it reaches no symbol outside it; on an untied top
        # radius that is also where numpy's Perron vector has no zero entry
        rng = random.Random(5)
        seen = {"accepted": 0, "refused": 0, "tied": 0}
        for _ in range(600):
            q = rng.randint(2, 8)
            lang = ip.compile_sft(range(1, q + 1), _sweep_relation(rng, q))
            A = lang.adjacency
            reach = A.copy()  # paths of length >= 1
            for _ in range(q.bit_length()):
                reach = np.minimum(reach + reach @ reach, 1.0)
            reach = reach > 0
            blocks = {frozenset(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in range(q) if reach[i, i]}
            radius = {b: max(abs(np.linalg.eigvals(A[np.ix_(sorted(b), sorted(b))]))) for b in blocks}
            top = max(radius.values())
            basic = [b for b in blocks if radius[b] > top * (1 - 1e-9)]
            inside = np.isin(np.arange(q), sorted(basic[0]))
            want = (
                len(basic) == 1
                and all(inside[i] or reach[i, inside].any() for i in range(q))
                and not reach[np.ix_(inside, ~inside)].any()
            )
            try:
                ip.parry_measure(lang)
                got = True
            except ip.PreconditionError:
                got = False
            assert got == want, A
            if len(basic) > 1:
                seen["tied"] += 1
            else:
                eigvals, eigvecs = np.linalg.eig(A)
                v = np.abs(np.real(eigvecs[:, np.argmax(np.real(eigvals))]))
                assert got == (v.min() > 0.0), A
            seen["accepted" if got else "refused"] += 1
        assert min(seen.values()) >= 50, seen


def _sweep_relation(rng: random.Random, q: int) -> list[tuple[int, int]]:
    """Edges on 1..q, every symbol with an out-edge, plus random extra edges:
    one full cycle; a forward chain whose edges never lead back; or two cycles,
    on 1..k and k+1..q, kept apart or with edges from the first into the second."""
    kind = rng.choice(("cycle", "chain", "apart", "feeding"))
    k = rng.randint(1, q - 1)
    if kind == "cycle":
        edges = [(i, i % q + 1) for i in range(1, q + 1)]
    elif kind == "chain":
        edges = [(i, min(i + 1, q)) for i in range(1, q + 1)]
    else:
        edges = [(i, i % k + 1) for i in range(1, k + 1)]
        edges += [(i, i + 1 if i < q else k + 1) for i in range(k + 1, q + 1)]
    allowed = {
        "cycle": lambda i, j: True,
        "chain": lambda i, j: j >= i,
        "apart": lambda i, j: (i <= k) == (j <= k),
        "feeding": lambda i, j: i <= k or j > k,
    }[kind]
    p = rng.choice((0.1, 0.25, 0.5))
    edges += [(i, j) for i in range(1, q + 1) for j in range(1, q + 1) if allowed(i, j) and rng.random() < p]
    return edges


def reference_covers(Z, word):
    return any(word[: len(z)] == z for z in Z.words)


class TestTargetSupport:
    def test_supported_on_against_tuple_slices(self, rng):
        for trial in range(60):
            lang = full_shift(3) if trial % 2 else random_sft(rng, 3)
            D = rng.randint(1, 5)
            pool = words(lang, D)
            masses = {w: rng.choice([0.0, rng.random()]) for w in pool}
            total = math.fsum(masses.values()) or 1.0
            masses = {w: m / total for w, m in masses.items()}
            if not math.isclose(math.fsum(masses.values()), 1.0):
                continue
            mu = ip.CylinderMeasure(lang, D, masses)
            support = [w for w, m in masses.items() if m > 0.0]
            picks = rng.sample(support, min(len(support), rng.randint(0, 3)))
            Z = ip.SubsetSpec.cylinders(
                [w[: rng.randint(1, D)] for w in picks]
                + [tuple(rng.choice(lang.symbols) for _ in range(rng.randint(1, D))) for _ in range(2)]
            )
            supported = all(reference_covers(Z, w) for w in support)
            assert mu.supported_on(Z) is supported
        assert mu.supported_on(ALL)


class TestLowerBsPressure:
    def test_fair_coin_attains_log2_exactly(self):
        lang = full_shift(2)
        mu = ip.cylinder_masses(ip.bernoulli_measure(lang, [0.5, 0.5]), lang, 12)
        est = ip.lower_bs_pressure(mu, const_weights(lang, 1.0))
        assert est.value == pytest.approx(math.log(2), abs=1e-12)
        assert est.slack <= 1e-12
        for h in est.depth_values:
            assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_biased_coin_against_entropy_oracle(self):
        lang = full_shift(2)
        p = 0.8
        mu = ip.cylinder_masses(ip.bernoulli_measure(lang, [p, 1 - p]), lang, 14)
        est = ip.lower_bs_pressure(mu, const_weights(lang, 1.0))
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert abs(est.value - entropy) <= 0.08  # finite-depth bias, reported not hidden
        assert est.value <= entropy + est.slack

    def test_point_mass_gives_zero(self):
        lang = full_shift(2)
        mu = ip.CylinderMeasure(lang, 6, {(1,) * 6: 1.0})
        est = ip.lower_bs_pressure(mu, const_weights(lang, 1.0))
        assert est.value == 0.0

    def test_value_below_depth_surrogates(self):
        lang = golden_mean()
        mu = ip.cylinder_masses(ip.parry_measure(lang), lang, 10)
        est = ip.lower_bs_pressure(mu, weights({1: 1.0, 2: 1.0}))
        window = est.depth_values[est.depth - est.tail_window :]
        assert est.value <= min(window) + 1e-12

    def test_ratios_of_every_prefix_mass(self):
        lang, w = golden_mean(), weights({1: 1.0, 2: 1.7})
        mu = ip.cylinder_masses(ip.parry_measure(lang), lang, 9)
        est = ip.lower_bs_pressure(mu, w)
        value, sums = 0.0, [0.0] * 9
        for leaf, m in sorted(mu.masses.items()):
            if m > 0.0:
                ratios = [-math.log(mu.mass(leaf[:n])) / word_weight(leaf[:n], w)
                          for n in range(1, 10)]
                value += m * min(ratios[-3:])
                for n, r in enumerate(ratios):
                    sums[n] += m * r
        assert est.value == value and est.depth_values == tuple(sums)

    def test_positive_weight_required(self):
        lang = full_shift(2)
        mu = ip.cylinder_masses(ip.bernoulli_measure(lang, [0.5, 0.5]), lang, 4)
        with pytest.raises(ip.PreconditionError):
            ip.lower_bs_pressure(mu, weights({1: 1.0, 2: -1.0}))


def _check_against_prefix_reference(mu, w, tail_window=3):
    """Every prefix mass and the lower pressure, bitwise against the reference."""
    ref = reference_prefix_masses(mu.masses)
    assert {word: mu.mass(word).hex() for word in ref} == {word: m.hex() for word, m in ref.items()}
    est = ip.lower_bs_pressure(mu, w, tail_window)
    value, depth_values, slack = reference_lower_bs(mu, w, tail_window)
    assert (est.value.hex(), est.slack.hex()) == (value.hex(), slack.hex())
    assert [v.hex() for v in est.depth_values] == [v.hex() for v in depth_values]


class TestPrefixTrie:
    """Prefix masses and lower pressures against the tuple-slice prefix table of conftest."""

    def test_parry_and_frostman_on_relations(self, rng):
        for trial in range(6):
            lang = golden_mean() if trial == 0 else random_sft(rng, rng.choice((3, 4)))
            w = random_weights(rng, lang, 0.3, 1.5)
            D = rng.randrange(5, 9)
            parry = ip.cylinder_masses(ip.parry_measure(lang), lang, D)
            # the walks' orders, which the prefix masses are summed in
            assert list(parry.masses) == sorted(parry.masses, reverse=True)
            _check_against_prefix_reference(parry, w, rng.randrange(1, 4))
            Z = ALL if trial % 2 else ip.SubsetSpec.cylinders(words(lang, 2)[:2])
            fw = ip.frostman_measure(lang, w, Z, rng.uniform(0.2, 0.8), 1, D)
            assert list(fw.masses) == sorted(fw.masses)
            _check_against_prefix_reference(ip.CylinderMeasure(lang, fw.D, fw.normalized()), w)

    def test_parry_and_frostman_on_itineraries(self, rng):
        D = 8
        lang = golden_itinerary(D)
        w = random_weights(rng, lang, 0.3, 1.5)
        parry = ip.cylinder_masses(ip.parry_measure(golden_mean()), lang, D)
        _check_against_prefix_reference(parry, w)
        for trial in range(4):
            lang = random_itinerary(rng, 14, 3)
            w = random_weights(rng, lang, 0.3, 1.5)
            Z = ALL if trial % 2 else ip.SubsetSpec.cylinders(words(lang, 2)[:1])
            fw = ip.frostman_measure(lang, w, Z, rng.uniform(0.2, 0.8), 1, rng.randrange(4, 9))
            _check_against_prefix_reference(ip.CylinderMeasure(lang, fw.D, fw.normalized()), w, 2)

    def test_shuffled_hand_built_measure(self, rng):
        # a mass table in no walk's order, with zero-mass words mixed in
        lang, D = full_shift(3), 6
        words = list(itertools.product(lang.symbols, repeat=D))
        rng.shuffle(words)
        raw = [rng.random() if rng.random() < 0.8 else 0.0 for _ in words]
        total = math.fsum(raw)
        mu = ip.CylinderMeasure(lang, D, {word: x / total for word, x in zip(words, raw)})
        for tail_window in (1, 3, D):
            _check_against_prefix_reference(mu, random_weights(rng, lang, 0.3, 1.5), tail_window)

    def test_positive_word_under_a_non_positive_prefix_is_refused(self):
        # the rounding noise a mass table may carry leaves the cylinder [1] below 0
        lang = full_shift(2)
        mu = ip.CylinderMeasure(lang, 2, {(1, 1): 1e-16, (1, 2): -1e-15, (2, 1): 1.0})
        assert mu.mass((1,)) < 0.0
        with pytest.raises(ip.PreconditionError):
            ip.lower_bs_pressure(mu, const_weights(lang, 1.0), 1)


class TestVpCheck:
    def test_full_shift_fair_coin_attains_dimension(self):
        lang = full_shift(2)
        rep = ip.vp_check(
            lang,
            const_weights(lang, 1.0),
            ALL,
            [("bernoulli-half", ip.bernoulli_measure(lang, [0.5, 0.5]))],
            D=12,
        )
        row = next(r for r in rep.candidates if r.name == "bernoulli-half")
        assert rep.dimension == pytest.approx(math.log(2), abs=5e-6)
        assert row.value == pytest.approx(rep.dimension, abs=5e-6)
        assert all(r.within_upper_bound for r in rep.candidates)

    def test_golden_mean_max_entropy_candidate(self):
        lang = golden_mean()
        rep = ip.vp_check(
            lang,
            weights({1: 1.0, 2: 1.0}),
            ALL,
            [("max-entropy", ip.parry_measure(lang))],
            D=12,
        )
        row = next(r for r in rep.candidates if r.name == "max-entropy")
        assert rep.dimension == pytest.approx(LOG_GOLDEN, abs=1e-5)
        assert row.value >= rep.dimension - 0.05
        assert all(r.within_upper_bound for r in rep.candidates)

    def test_conditional_fair_coin_on_cylinder(self):
        lang = full_shift(2)
        K = ip.SubsetSpec.cylinders([(1,)])
        D = 16
        # the fair coin conditioned on [1]: the words under 1, their masses doubled
        full = ip.cylinder_masses(ip.bernoulli_measure(lang, [0.5, 0.5]), lang, D)
        conditional = ip.CylinderMeasure(
            lang, D, {w: 2.0 * m for w, m in full.masses.items() if w[0] == 1}
        )
        rep = ip.vp_check(
            lang, const_weights(lang, 1.0), K, [("conditional", conditional)], D=D
        )
        row = next(r for r in rep.candidates if r.name == "conditional")
        assert rep.dimension == pytest.approx(math.log(2), abs=1e-5)
        assert abs(row.value - math.log(2)) <= 0.05
        assert all(r.within_upper_bound for r in rep.candidates)

    def test_frostman_candidate_reaches_its_level(self):
        lang = golden_mean()
        w = weights({1: 1.0, 2: 1.0})
        tol = 1e-6
        rep = ip.vp_check(lang, w, ALL, [], D=12, tol=tol)
        row = next(r for r in rep.candidates if r.name == "frostman")
        lam = max(0.0, rep.dimension_detail.certificate.bracket[0])
        assert rep.dimension - tol < lam <= rep.dimension
        fw = ip.frostman_measure(lang, w, ALL, lam, 1, 12)
        est = ip.lower_bs_pressure(ip.CylinderMeasure(lang, fw.D, fw.normalized()), w)
        assert row.value == pytest.approx(est.value, rel=1e-12)
        assert row.value >= lam - est.slack - 1e-9

    @pytest.mark.parametrize("with_candidate", [True, False])
    def test_cylinder_walks_honour_max_nodes(self, with_candidate):
        # the Markov candidate and the Frostman flow are both bounded
        lang = full_shift(2)
        cands = [("fair", ip.bernoulli_measure(lang, [0.5, 0.5]))] if with_candidate else []
        with pytest.raises(ip.GuardError):
            ip.vp_check(lang, const_weights(lang, 1.0), ALL, cands, D=14, max_nodes=1000)

    def test_unsupported_candidate_rejected(self):
        lang = full_shift(2)
        K = ip.SubsetSpec.cylinders([(1,)])
        with pytest.raises(ip.PreconditionError):
            ip.vp_check(
                lang,
                const_weights(lang, 1.0),
                K,
                [("everywhere", ip.bernoulli_measure(lang, [0.5, 0.5]))],
                D=8,
            )

    def test_candidate_values_match_the_prefix_reference(self, rng):
        # every row of a report, bitwise against the tuple-slice reference
        for trial in range(3):
            lang = golden_mean() if trial == 0 else random_sft(rng, 3)
            w, tol, D = random_weights(rng, lang, 0.3, 1.5), 1e-6, 9
            parry = ip.parry_measure(lang)
            rep = ip.vp_check(lang, w, ALL, [("parry", parry)], D=D, tol=tol)
            lam = max(0.0, rep.dimension_detail.certificate.bracket[0])
            fw = ip.frostman_measure(lang, w, ALL, lam, 1, D)
            refs = [
                reference_lower_bs(ip.cylinder_masses(parry, lang, D), w),
                reference_lower_bs(ip.CylinderMeasure(lang, fw.D, fw.normalized()), w),
            ]
            for row, (value, _, slack) in zip(rep.candidates, refs):
                assert (row.value.hex(), row.slack.hex()) == (value.hex(), slack.hex())

    def test_markov_candidate_from_matrix(self):
        lang = golden_mean()
        mu = ip.markov_measure(lang, [[0.5, 0.5], [1.0, 0.0]])
        rep = ip.vp_check(lang, weights({1: 1.0, 2: 1.0}), ALL, [("markov", mu)], D=10)
        row = next(r for r in rep.candidates if r.name == "markov")
        # entropy of this chain: pi = (2/3, 1/3); h = (2/3) log 2
        assert row.value <= rep.dimension + row.slack + 1e-9
        assert row.value >= (2.0 / 3.0) * math.log(2) - 0.12
