"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from closed forms or from the independent
oracles in conftest; nothing is tuned to the implementation under test.
"""

import json
import math
import random
import time

import invpressure as ip
from invpressure.cli import bundled_config_path, run
from conftest import (
    brute_cover_min,
    compute_level_sets,
    const_weights,
    cubic_time_scale_root,
    full_shift,
    golden_mean,
    nested_bisection_dimension,
    random_sft,
    random_weights,
    scaled,
    separated_sum,
    sparse_sft,
    weights,
    word_cover_value,
    words,
)

ALL = ip.SubsetSpec.whole_space()


def report(num: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_closed_form_full_shift():
    started = time.perf_counter()
    ok = True
    c = 0.37
    for q in (2, 3, 5):
        lang = full_shift(q)
        est = ip.capacity_pressure(lang, const_weights(lang, c), 50, 10)
        expect = math.log(q) + c
        ok &= all(abs(v - expect) <= 1e-12 * abs(expect) for _n, v in est.values)
        ok &= abs(est.limsup_estimate - expect) <= 1e-12 * abs(expect)
    ok &= (time.perf_counter() - started) < 1.0
    report(1, "closed-form full shift", ok)


def test_criterion_02_spectral_oracle():
    started = time.perf_counter()
    lang = golden_mean()
    w0 = const_weights(lang, 0.0)
    spectral = ip.spectral_pressure(lang, w0)
    est = ip.capacity_pressure(lang, w0, 200, 10)
    ok = abs(spectral - 0.4812118250596) <= 1e-10
    ok &= abs(est.values[-1][1] - spectral) <= 0.01
    ok &= (time.perf_counter() - started) < 5.0
    report(2, "golden-mean spectral oracle", ok)


def test_criterion_03_bowen_root():
    started = time.perf_counter()
    cert = ip.bowen_root(
        golden_mean(), weights({1: 0.0, 2: 0.0}), weights({1: 1.0, 2: 2.0}), tol=1e-9
    )
    beta_star = -math.log(cubic_time_scale_root())
    ok = abs(cert.residual) / 1.0 <= 1e-9
    ok &= abs(cert.beta_hat - beta_star) <= 1e-6
    ok &= (time.perf_counter() - started) < 5.0
    report(3, "Bowen root vs cubic oracle", ok)


def test_criterion_04_characterization_flip_brackets_root():
    rng = random.Random(20240404)
    violations = 0
    for _ in range(20):
        q = rng.choice((3, 4))
        lang = random_sft(rng, q)
        w_phi = random_weights(rng, lang, -1.0, 1.0)
        w_psi = random_weights(rng, lang, 0.5, 2.0)
        root = ip.bowen_root(lang, w_phi, w_psi, tol=1e-9).beta_hat
        norm_phi = max(abs(v) for v in w_phi.weights.values())
        m = min(w_psi.weights.values())
        lo = -norm_phi / m - 0.2
        hi = math.log(q) / m + norm_phi / m + 0.2
        betas = [lo + 0.05 * k for k in range(int((hi - lo) / 0.05) + 1)]
        flip = ip.verdict_flip(
            ip.characterization_scan(lang, w_phi, w_psi, betas, T=20.0)
        )
        if flip is None or not flip[0] <= root <= flip[1]:
            violations += 1
    report(4, "scan flip brackets Bowen root (20 instances)", violations == 0)


def test_criterion_05_induced_sum_trend():
    lang = full_shift(2)
    w0, ones = const_weights(lang, 0.0), const_weights(lang, 1.0)
    v10 = ip.induced_sum(lang, w0, ones, 10.5) / 10.5
    v40 = ip.induced_sum(lang, w0, ones, 40.5) / 40.5
    ok = abs(v10 - math.log(2)) <= 0.07 and abs(v40 - math.log(2)) <= 0.02
    report(5, "induced-sum trend on the full 2-shift", ok)


def test_criterion_06_cover_dp_exactness():
    rng = random.Random(20240606)
    ok = True
    for _ in range(50):
        lang = sparse_sft(rng, rng.choice((2, 3)))
        w = random_weights(rng, lang, 0.2, 1.5)
        lam = rng.uniform(0.0, 1.2)
        N, D = rng.choice((1, 2)), 4
        if rng.random() < 0.4:
            pool = words(lang, rng.choice((1, 2)))
            z_words = sorted(pool)[: rng.randrange(1, len(pool) + 1)]
            Z = ip.SubsetSpec.cylinders(z_words)
        else:
            z_words, Z = None, ALL
        tau_cost = lambda word: math.exp(-lam * len(word) + sum(w[s] for s in word))
        wt_cost = lambda word: math.exp(-lam * sum(w[s] for s in word))
        m_val = ip.cover_value(lang, w, Z, lam, N, D)
        r_val = ip.bs_cover_value(lang, w, Z, lam, N, D)
        m_oracle = brute_cover_min(lang, tau_cost, z_words, N, D)
        r_oracle = brute_cover_min(lang, wt_cost, z_words, N, D)
        ok &= abs(m_val - m_oracle) <= 1e-12 * max(1.0, abs(m_oracle))
        ok &= abs(r_val - r_oracle) <= 1e-12 * max(1.0, abs(r_oracle))
    report(6, "cover DP equals exhaustive antichain minima (50 instances)", ok)


def test_criterion_07_dimension_root_agrees_with_jump():
    # each dimension against the zero of Bowen's equation found by nested bisection
    started = time.perf_counter()
    ok = True
    lang2 = full_shift(2)
    cases = [(lang2, const_weights(lang2, c), math.log(2) / c, 2e-6)
             for c in (0.5, math.log(2), 2.0)]
    cases.append((golden_mean(), weights({1: 1.0, 2: 1.0}), 0.4812118, 1e-6))
    for lang, w, closed_form, within in cases:
        res = ip.bs_dimension(lang, w, ALL, tol=1e-7, N=1, D=14)
        bowen = nested_bisection_dimension(lang, w, 1, 14)
        ok &= abs(res.value - bowen) <= res.certificate.error_bound + 1e-9
        ok &= abs(res.value - closed_form) <= within
    ok &= (time.perf_counter() - started) < 30.0
    report(7, "dimension root solves Bowen's equation at D=14", ok)


def test_criterion_08_flow_duality_and_sandwich():
    rng = random.Random(20240808)
    ok = True
    for k in range(50):
        lang = random_sft(rng, rng.choice((2, 3)))
        w = random_weights(rng, lang, 0.3, 1.5)
        lam = rng.uniform(0.05, 1.2)
        D = rng.choice((5, 6, 7))
        N = rng.choice((1, 2, 3))
        if rng.random() < 0.3:
            pool = words(lang, 2)
            Z = ip.SubsetSpec.cylinders(sorted(pool)[: rng.randrange(1, len(pool) + 1)])
        else:
            Z = ALL
        fw = ip.frostman_measure(lang, w, Z, lam, N, D)
        # the cover optimum under caps exp(-lam*weight), over explicit words
        W = word_cover_value(lang, scaled(w, -lam), Z, 0.0, N, D)
        ok &= abs(fw.total - W) <= 1e-10 * max(W, 1e-300)
        under = {}
        for leaf, m in fw.masses.items():
            for n in range(N, D + 1):
                under[leaf[:n]] = under.get(leaf[:n], 0.0) + m
        for word, tot in under.items():
            cap = math.exp(-lam * sum(w[s] for s in word))
            ok &= tot <= cap + 1e-12
        eps = (0.1, 0.01)[k % 2]
        rep = ip.sandwich_check(lang, w, Z, lam, eps, N, D)
        ok &= rep.holds and abs(rep.w_at_lam - W) <= 1e-10 * max(W, 1e-300)
    report(8, "Frostman duality and sandwich (50 instances)", ok)


def _bundled_language_and_scale(name):
    with open(bundled_config_path(name), encoding="utf-8") as fh:
        cfg = json.load(fh)
    crange = ip.ControlRange(
        tuple(cfg["control_range"]["values"]),
        {
            pname: {u: float(x) for u, x in table.items()}
            for pname, table in cfg["control_range"]["potentials"].items()
        },
    )
    part = ip.PartitionSpec(
        cfg["partition"]["tau"],
        {int(k): tuple(v) for k, v in cfg["partition"]["control_words"].items()},
    )
    lang = ip.compile_sft(part.symbols, [tuple(e) for e in cfg["system"]["transitions"]], part)
    return lang, ip.derive_symbol_weights(crange, part, "scale")


def test_criterion_09_corollary_on_bundled_examples():
    ok = True
    for name in ("full-shift-3.json", "golden-mean.json"):
        lang, w_psi = _bundled_language_and_scale(name)
        rep = ip.corollary_check(lang, w_psi, D=12, tol=1e-7)
        ok &= rep.gap <= 5e-6
    report(9, "dimension equals zero-potential Bowen root on bundled examples", ok)


def test_criterion_10_variational_principle():
    ok = True
    gm = golden_mean()
    rep = ip.vp_check(
        gm, weights({1: 1.0, 2: 1.0}), ALL, [("max-entropy", ip.parry_measure(gm))], D=12
    )
    parry_row = next(r for r in rep.candidates if r.name == "max-entropy")
    ok &= parry_row.value >= rep.dimension - 0.05
    ok &= all(r.within_upper_bound for r in rep.candidates)

    f2 = full_shift(2)
    rep2 = ip.vp_check(
        f2, const_weights(f2, 1.0), ALL, [("fair-coin", ip.bernoulli_measure(f2, [0.5, 0.5]))], D=12
    )
    coin = next(r for r in rep2.candidates if r.name == "fair-coin")
    ok &= abs(coin.value - rep2.dimension) <= 1e-5
    ok &= abs(coin.value - math.log(2)) <= 1e-12
    ok &= all(r.within_upper_bound for r in rep2.candidates)
    report(10, "variational principle at desk scale", ok)


def test_criterion_11_paper_bound_suite():
    rng = random.Random(20241111)
    violations = 0

    for _ in range(100):  # budget-window location of the crossing levels
        lang = random_sft(rng, 3)
        w_psi = random_weights(rng, lang, 0.5, 2.0)
        T = rng.uniform(1.0, 4.0)
        sets = compute_level_sets(lang, w_psi, T)
        lo, hi = T / w_psi.rate_max() - 1, T / w_psi.rate_min()
        if not all(lo < n <= hi for n in sets.window_levels):
            violations += 1

    for _ in range(100):  # explicit finite-T enclosure of the induced sum
        lang = random_sft(rng, rng.choice((2, 3)))
        w_phi = random_weights(rng, lang, -1.0, 1.0)
        w_psi = random_weights(rng, lang, 0.5, 2.0)
        T = rng.uniform(1.5, 4.0)
        val = ip.induced_sum(lang, w_phi, w_psi, T)
        norm_phi = max(abs(v) for v in w_phi.weights.values())
        norm_psi = max(w_psi.weights.values())
        m = min(w_psi.weights.values())
        q = len(lang.symbols)
        lo = -(T / m) * norm_phi
        hi = (
            math.log(T / m - T / norm_psi + 1)
            + (T / m + 1) * math.log(q)
            + (T / m) * norm_phi
        )
        if not (lo - 1e-9 <= val <= hi + 1e-9):
            violations += 1

    for _ in range(100):  # finite-n Lipschitz and slope bounds
        lang = random_sft(rng, rng.choice((2, 3)))
        w_phi = random_weights(rng, lang, -1.0, 1.0)
        w_psi = random_weights(rng, lang, 0.5, 2.0)
        b1 = rng.uniform(-1.5, 1.5)
        b2 = b1 + rng.uniform(0.02, 1.0)
        n = rng.randrange(1, 7)
        f1 = separated_sum(lang, ip.combine_weights(w_phi, w_psi, b1), n) / n
        f2 = separated_sum(lang, ip.combine_weights(w_phi, w_psi, b2), n) / n
        if abs(f1 - f2) > w_psi.rate_max() * (b2 - b1) + 1e-10:
            violations += 1
        if f2 > f1 - (b2 - b1) * w_psi.rate_min() + 1e-10:
            violations += 1

    for _ in range(100):  # jump comparison factor between scales
        lang = sparse_sft(rng, rng.choice((2, 3)))
        w = random_weights(rng, lang, 0.3, 1.5)
        lam0 = rng.uniform(0.0, 0.8)
        lam = lam0 + rng.uniform(0.05, 0.8)
        N, D = rng.choice((1, 2, 3)), 6
        v0 = ip.bs_cover_value(lang, w, ALL, lam0, N, D)
        v1 = ip.bs_cover_value(lang, w, ALL, lam, N, D)
        m = min(w.weights.values())
        if v1 > v0 * math.exp((lam0 - lam) * N * m) + 1e-12:
            violations += 1

    for _ in range(100):  # cover optima non-decreasing in the start depth
        lang = sparse_sft(rng, rng.choice((2, 3)))
        w = random_weights(rng, lang, 0.3, 1.5)
        lam = rng.uniform(-0.5, 1.2)
        D = 6
        m_vals = [ip.cover_value(lang, w, ALL, lam, N, D) for N in (1, 2, 3, 4)]
        r_vals = [ip.bs_cover_value(lang, w, ALL, lam, N, D) for N in (1, 2, 3, 4)]
        for seq in (m_vals, r_vals):
            if any(b < a - 1e-12 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:])):
                violations += 1

    report(11, "paper bound suite, 100 instances per property", violations == 0)


def test_criterion_12_deterministic_outputs(tmp_path):
    ok = True
    for name in ("full-shift-3.json", "golden-mean.json", "affine-doubling.json"):
        with open(bundled_config_path(name), encoding="utf-8") as fh:
            cfg = json.load(fh)
        m1 = run(cfg, str(tmp_path / "first" / name))
        m2 = run(cfg, str(tmp_path / "second" / name))
        ok &= m1["outputs"] == m2["outputs"]
        for artifact in m1["outputs"]:
            b1 = (tmp_path / "first" / name / artifact).read_bytes()
            b2 = (tmp_path / "second" / name / artifact).read_bytes()
            ok &= b1 == b2
    report(12, "byte-identical reruns of bundled configs", ok)
