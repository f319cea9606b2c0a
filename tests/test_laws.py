"""Laws every invariant obeys under a change of symbol names or a disjoint union.

An increasing relabelling keeps the symbols' order, so every number must come
out bit for bit the same; its symbols are not consecutive, so the relation's
ends are looked up by bisection.  A permutation reorders the sums inside each
kernel, so its numbers may move by rounding, never past the certificates.  A
disjoint union's pressure, Bowen root and induced sum are those of its larger
part, or the log-sum of the parts.  Renaming and reordering the states of a
finite-state system changes no unit and no bit.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import invpressure as ip
from invpressure.capacity import level_log_sums

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
            [(r.beta, r.T, r.verdict, r.partial_log_sum, r.n_cap) for r in rows],
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
