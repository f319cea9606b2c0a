"""Laws every invariant obeys under a change of symbol names or a disjoint union.

An increasing relabelling keeps the symbols' order, so every number must come
out bit for bit the same; its symbols are not consecutive, so the relation's
ends are looked up by bisection.  A permutation reorders the sums inside each
kernel, so its numbers may move by rounding, never past the certificates.  A
disjoint union's pressure, Bowen root and induced sum are those of its larger
part, or the log-sum of the parts.  Renaming and reordering the states of a
finite-state system changes no unit and no bit.  Scaling psi by c divides the
Bowen root and the BS dimension by c, and the 2-block recoding of a relation
keeps its pressure and its Bowen root, each within the summed certificates.
Shifting phi by c*psi moves the Bowen root by exactly c; at c = 1e7 the
certificate misses that (ROADMAP item 8), which a strict xfail pins.  The
induced sum lies inside the explicit finite-T enclosure of acceptance
criterion 11, cover optima never fall as the start depth N grows, and on a
pure cycle the certified Bowen root covers the exact root sum(phi)/sum(psi);
on a cycle of states, whose oracle is exact, a strict xfail pins a miss by
rounding (ROADMAP item 8).
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

import invpressure as ip
from invpressure.capacity import _RTOL, level_log_sums
from conftest import scaled

LAW = settings(max_examples=100, derandomize=True, deadline=None, database=None)
T = 3.0


def grid(lo: int, hi: int):
    """Reals on the 2-decimal grid from lo/100 to hi/100."""
    return st.integers(lo, hi).map(lambda k: k / 100)


@st.composite
def relations(draw, max_q: int = 8):
    """(q, edges, phi, psi) on symbols 1..q, each with 1-3 successors; phi in
    [-2, 2] and psi in [0.25, 2] on the 2-decimal grid."""
    q = draw(st.integers(1, max_q))
    symbols = range(1, q + 1)
    succ = [draw(st.sets(st.sampled_from(symbols), min_size=1, max_size=3)) for _ in symbols]
    edges = sorted((i, j) for i, js in zip(symbols, succ) for j in js)
    phi = {s: draw(grid(-200, 200)) for s in symbols}
    psi = {s: draw(grid(25, 200)) for s in symbols}
    return q, edges, phi, psi


def renamed(relation, name):
    """The relation, its phi and its psi with every symbol s renamed name(s)."""
    q, edges, phi, psi = relation
    lang = ip.compile_sft([name(s) for s in range(1, q + 1)], [(name(i), name(j)) for i, j in edges])
    w_phi = ip.PerSymbolWeights({name(s): v for s, v in phi.items()}, 1)
    w_psi = ip.PerSymbolWeights({name(s): v for s, v in psi.items()}, 1)
    return lang, w_phi, w_psi


def scan_grid(cert: ip.RootCertificate) -> list[float]:
    """Betas on both sides of the root and inside its error band."""
    e = cert.error_bound
    return [cert.beta_hat + k * e / 2 for k in range(-3, 4)] + [cert.beta_hat - 1.0, cert.beta_hat + 1.0]


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


@LAW
@given(relations())
def test_an_increasing_relabelling_changes_no_bit(relation):
    plain = renamed(relation, lambda s: s)
    moved = renamed(relation, lambda s: 3 * s - 40)
    assert np.array_equal(moved[0].adjacency, plain[0].adjacency)
    betas = scan_grid(ip.bowen_root(*plain))
    got = []
    for lang, w_phi, w_psi in (plain, moved):
        root = ip.bowen_root(lang, w_phi, w_psi)
        dim = ip.bs_dimension(lang, w_psi, D=4)
        rows = ip.characterization_scan(lang, w_phi, w_psi, betas, T)
        got.append((
            ip.spectral_pressure(lang, w_phi),
            root.beta_hat,
            root.error_bound,
            ip.induced_sum(lang, w_phi, w_psi, T),
            dim.value,
            dim.certificate.error_bound,
            ip.characterization_sum(lang, w_phi, w_psi, betas[0], T)[0],
            [(r.beta, r.T, r.verdict) for r in rows],
        ))
    (*numbers, rows), (*numbers_moved, rows_moved) = got
    assert all(same_bits(a, b) for a, b in zip(numbers, numbers_moved)), (numbers, numbers_moved)
    assert rows == rows_moved


@LAW
@given(relations().flatmap(lambda r: st.tuples(st.just(r), st.permutations(range(1, r[0] + 1)))))
def test_a_permutation_moves_nothing_past_the_certificates(drawn):
    relation, perm = drawn
    plain = renamed(relation, lambda s: s)
    moved = renamed(relation, lambda s: perm[s - 1])
    roots = [ip.bowen_root(*lang_weights) for lang_weights in (plain, moved)]
    assert abs(roots[0].beta_hat - roots[1].beta_hat) < roots[0].error_bound + roots[1].error_bound
    sums = [ip.induced_sum(*lang_weights, T) for lang_weights in (plain, moved)]
    assert math.isclose(*sums, rel_tol=1e-12), sums
    betas = scan_grid(roots[0]) + scan_grid(roots[1])
    scans = [ip.characterization_scan(*lang_weights, betas, T) for lang_weights in (plain, moved)]
    for beta, a, b in zip(betas, *scans):
        if a.verdict != b.verdict:
            assert any(r.beta_hat - r.error_bound <= beta <= r.beta_hat + r.error_bound for r in roots), (beta, a, b)


@LAW
@given(relations(max_q=4), relations(max_q=4))
def test_a_disjoint_union_reads_its_parts(first, second):
    q1, edges1, phi1, psi1 = first
    q2, edges2, phi2, psi2 = second
    union = (
        q1 + q2,
        edges1 + [(i + q1, j + q1) for i, j in edges2],
        {**phi1, **{s + q1: v for s, v in phi2.items()}},
        {**psi1, **{s + q1: v for s, v in psi2.items()}},
    )
    parts = [renamed(first, lambda s: s), renamed(second, lambda s: s), renamed(union, lambda s: s)]
    pressures = [ip.spectral_pressure(lang, w_phi) for lang, w_phi, _ in parts]
    assert pressures[2] == max(pressures[:2])
    roots = [ip.bowen_root(*lang_weights) for lang_weights in parts]
    larger = max(roots[:2], key=lambda r: r.beta_hat)
    gap = abs(roots[2].beta_hat - larger.beta_hat)
    assert gap <= roots[2].error_bound + max(r.error_bound for r in roots[:2]), roots
    a, b, both = [ip.induced_sum(*lang_weights, T) for lang_weights in parts]
    # a few roundings of a log-sum whose terms are near 1, or of the value itself
    ref = np.logaddexp(a, b)
    assert abs(both - ref) <= 4 * math.ulp(max(1.0, abs(ref))), (a, b, both)


@st.composite
def finite_state_systems(draw):
    """(step, cells, phi, psi) of a tau = 1 system: 3-60 states, each state's one
    move and its cell among 1-5 cells; phi in [-2, 2] and psi in [0.25, 2] per
    cell, on the 2-decimal grid."""
    n = draw(st.integers(3, 60))
    c = draw(st.integers(1, 5))
    step = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = draw(st.lists(st.integers(1, c), min_size=n, max_size=n))
    phi = {i: draw(grid(-200, 200)) for i in range(1, c + 1)}
    psi = {i: draw(grid(25, 200)) for i in range(1, c + 1)}
    return step, cells, phi, psi


def finite_state_language(drawn, name, states_order, invariant_order, move_order):
    """The itinerary language of the drawn system with state k named name(k), its
    states and invariant set listed, and its moves inserted, in the given orders."""
    step, cells, phi, psi = drawn
    moves = {(name(k), "u"): name(step[k]) for k in move_order}
    system = ip.FiniteStateSystem(
        tuple(name(k) for k in states_order), moves,
        tuple(name(k) for k in invariant_order), {name(k): c for k, c in enumerate(cells)},
    )
    spec = ip.PartitionSpec(1, {i: ("u",) for i in phi})
    return ip.itinerary_language(system, spec)


@LAW
@given(finite_state_systems().flatmap(lambda d: st.tuples(
    st.just(d), *(st.permutations(range(len(d[0]))) for _ in range(4))
)))
def test_renaming_and_reordering_states_changes_no_bit(drawn):
    system, names, states_order, invariant_order, move_order = drawn
    n = len(system[0])
    plain = finite_state_language(system, lambda k: f"x{k}", range(n), range(n), range(n))
    moved = finite_state_language(
        system, lambda k: f"s{names[k]}", states_order, invariant_order, move_order
    )
    _, _, phi, psi = system
    w_phi, w_psi = ip.PerSymbolWeights(phi, 1), ip.PerSymbolWeights(psi, 1)
    got = []
    for lang in (plain, moved):
        g = lang.unit_graph(30)
        root = ip.bowen_root(lang, w_phi, w_psi)
        got.append((
            g.n_units, [getattr(g, f).tolist() for f in ("src", "sym", "starts", "seg")],
            [x.hex() for x in level_log_sums(lang, w_phi, 30).tolist()],
            root.beta_hat.hex(), root.error_bound.hex(),
            ip.induced_sum(lang, w_phi, w_psi, T).hex(),
        ))
    assert got[0] == got[1]


@LAW
@given(relations(), st.integers(-300, 300).map(lambda k: 10.0 ** (k / 100)))
def test_scaling_psi_divides_the_root_and_the_dimension(relation, c):
    lang, w_phi, w_psi = renamed(relation, lambda s: s)
    w_scaled = scaled(w_psi, c)
    root, root_scaled = ip.bowen_root(lang, w_phi, w_psi), ip.bowen_root(lang, w_phi, w_scaled)
    gap = abs(root_scaled.beta_hat - root.beta_hat / c)
    assert gap <= root_scaled.error_bound + root.error_bound / c, (c, root, root_scaled)
    dim, dim_scaled = ip.bs_dimension(lang, w_psi, D=4), ip.bs_dimension(lang, w_scaled, D=4)
    gap = abs(dim_scaled.value - dim.value / c)
    bound = dim_scaled.certificate.error_bound + dim.certificate.error_bound / c
    assert gap <= bound, (c, dim, dim_scaled)


@LAW
@given(relations())
def test_the_induced_sum_lies_in_the_finite_budget_enclosure(relation):
    # acceptance criterion 11: a crossing prefix is at most T/m symbols long, and
    # at most T/m - T/max(psi) + 1 lengths, of at most q^(T/m + 1) words each, cross
    lang, w_phi, w_psi = renamed(relation, lambda s: s)
    val = ip.induced_sum(lang, w_phi, w_psi, T)
    norm_phi = max(abs(v) for v in w_phi.weights.values())
    norm_psi, m = max(w_psi.weights.values()), min(w_psi.weights.values())
    lo = -(T / m) * norm_phi
    hi = math.log(T / m - T / norm_psi + 1) + (T / m + 1) * math.log(relation[0]) + (T / m) * norm_phi
    assert lo - 1e-9 <= val <= hi + 1e-9, (lo, val, hi)


@LAW
@given(relations(), grid(-50, 120))
def test_cover_optima_never_fall_as_the_start_depth_grows(relation, lam):
    # a cover from depth N + 1 on is also one from depth N on; criterion 11's relative slack
    lang, w_phi, w_psi = renamed(relation, lambda s: s)
    all_words = ip.SubsetSpec.whole_space()
    for value, w in ((ip.cover_value, w_phi), (ip.bs_cover_value, w_psi)):
        seq = [value(lang, w, all_words, lam, N, 6) for N in (1, 2, 3, 4)]
        assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:])), (value, seq)


@LAW
@given(st.integers(1, 13).flatmap(lambda p: st.tuples(
    st.lists(grid(-200, 200), min_size=p, max_size=p), st.lists(grid(25, 200), min_size=p, max_size=p)
)))
def test_a_pure_cycle_root_is_covered_by_its_certificate(weights):
    # on the cycle 1 -> 2 -> ... -> p -> 1 the pressure of phi - beta*psi is the mean of
    # its weights, so the root is sum(phi)/sum(psi), exactly, in the weights as floats
    phi, psi = weights
    p = len(phi)
    lang = ip.compile_sft(range(1, p + 1), [(k, k % p + 1) for k in range(1, p + 1)])
    w_phi = ip.PerSymbolWeights(dict(enumerate(phi, 1)), 1)
    w_psi = ip.PerSymbolWeights(dict(enumerate(psi, 1)), 1)
    root = ip.bowen_root(lang, w_phi, w_psi)
    exact = sum(map(Fraction, phi)) / sum(map(Fraction, psi))
    assert abs(Fraction(root.beta_hat) - exact) <= Fraction(root.error_bound), (float(exact), root)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: error_bound counts no rounding of beta_hat")
def test_a_cycle_of_states_root_is_covered_by_its_certificate():
    # one state in its own cell: the exact cycle mean makes error_bound 0, but no float is
    # -1.37/0.37.  27 of 400 cycles of 1-13 states with 2-decimal weights miss by such a rounding
    phi, psi = {1: -1.37}, {1: 0.37}
    lang = finite_state_language(([0], [1], phi, psi), lambda k: f"x{k}", [0], [0], [0])
    root = ip.bowen_root(lang, ip.PerSymbolWeights(phi, 1), ip.PerSymbolWeights(psi, 1))
    exact = Fraction(phi[1]) / Fraction(psi[1])
    assert abs(Fraction(root.beta_hat) - exact) <= Fraction(root.error_bound), (float(exact), root)


def two_block(relation):
    """The 2-block recoding: edge k of the sorted edges is symbol k + 1, edge (i, j)
    runs to every edge (j, l), and each edge carries the weights of its first symbol."""
    q, edges, phi, psi = relation
    index = {e: k + 1 for k, e in enumerate(edges)}
    pairs = [(index[i, j], index[j, l]) for i, j in edges for j2, l in edges if j2 == j]
    return (
        len(edges), pairs, {index[e]: phi[e[0]] for e in edges}, {index[e]: psi[e[0]] for e in edges},
    )


@LAW
@given(relations())
def test_the_two_block_recoding_keeps_pressure_and_root(relation):
    plain, recoded = renamed(relation, lambda s: s), renamed(two_block(relation), lambda s: s)
    pressures = [ip.spectral_pressure(lang, w_phi) for lang, w_phi, _ in (plain, recoded)]
    # each oracle stops at a Collatz-Wielandt half-width of at most _RTOL, relative
    assert abs(pressures[0] - pressures[1]) <= 2 * _RTOL + 4 * math.ulp(max(1.0, abs(pressures[0])))
    roots = [ip.bowen_root(*lang_weights) for lang_weights in (plain, recoded)]
    assert abs(roots[0].beta_hat - roots[1].beta_hat) <= roots[0].error_bound + roots[1].error_bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: error_bound counts no rounding of the tilted weights")
def test_shifting_phi_by_c_psi_moves_the_root_by_c():
    # a draw where the shift law fails at c = 1e7.  The weights are multiples of 1/64,
    # so phi + c*psi and beta_hat - c are exact, and the law needs no rounding slack
    c = 1e7
    edges = [(1, 1), (1, 3), (2, 1), (2, 4), (2, 6), (3, 4), (3, 6), (4, 6), (5, 2), (5, 4), (5, 5), (6, 3)]
    phi = {1: -0.15625, 2: -1.703125, 3: -1.015625, 4: 0.671875, 5: 0.09375, 6: -1.59375}
    psi = {1: 0.78125, 2: 1.515625, 3: 1.34375, 4: 1.59375, 5: 1.109375, 6: 1.609375}
    lang, w_phi, w_psi = renamed((6, edges, phi, psi), lambda s: s)
    w_shifted = ip.PerSymbolWeights({s: phi[s] + c * psi[s] for s in phi}, 1)
    assert all(w_shifted[s] - c * psi[s] == phi[s] for s in phi)
    root, shifted = ip.bowen_root(lang, w_phi, w_psi), ip.bowen_root(lang, w_shifted, w_psi)
    gap = abs((shifted.beta_hat - c) - root.beta_hat)
    assert gap <= root.error_bound + shifted.error_bound + 4 * math.ulp(1.0), (gap, root, shifted)
