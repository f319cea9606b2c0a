"""Capacity pressure, spectral oracle, and the Bowen-equation solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import invpressure as ip
from invpressure import capacity
from invpressure.capacity import _forward_sums, _perron_radius, level_log_sums
from invpressure.symbolic import NEG_INF, UnitGraph
from conftest import (
    UnitWalk,
    bisect_root,
    const_weights,
    coprime_cycles,
    cubic_time_scale_root,
    dense_log_radius,
    full_shift,
    golden_mean,
    random_itinerary,
    random_sft,
    random_weights,
    record_expansions,
    separated_sum,
    single_branch,
    spanning_sum,
    weights,
    whole_graph_sums,
    words,
)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


class TestSeparatedSum:
    def test_full_2_shift_counting(self):
        lang = full_shift(2)
        assert separated_sum(lang, const_weights(lang, 0.0), 10) == pytest.approx(
            math.log(1024), rel=1e-14
        )

    def test_weighted_against_flat_sum_oracle(self):
        lang = full_shift(2)
        w = weights({1: 0.0, 2: math.log(2)})
        oracle = math.log(
            math.fsum(
                math.exp(sum({1: 0.0, 2: math.log(2)}[s] for s in word))
                for word in words(lang, 3)
            )
        )
        got = separated_sum(lang, w, 3)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(math.log(27), rel=1e-12)

    def test_golden_mean_counting(self):
        lang = golden_mean()
        assert separated_sum(lang, const_weights(lang, 0.0), 3) == pytest.approx(
            math.log(5), rel=1e-14
        )


class TestSpanningSum:
    def test_equals_separated_everywhere(self, rng):
        for _ in range(10):
            lang = random_sft(rng, rng.choice((2, 3)))
            w = random_weights(rng, lang, -1.5, 1.5)
            n = rng.randrange(1, 6)
            assert spanning_sum(lang, w, n) == pytest.approx(
                separated_sum(lang, w, n), rel=1e-12
            )

    def test_full_3_shift(self):
        lang = full_shift(3)
        assert spanning_sum(lang, const_weights(lang, 0.0), 2) == pytest.approx(
            math.log(9), rel=1e-14
        )

    def test_golden_mean_weighted(self):
        lang = golden_mean()
        w = weights({1: 1.0, 2: -1.0})
        # words 11, 12, 21 carry weights 2, 0, 0
        assert spanning_sum(lang, w, 2) == pytest.approx(
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
        assert lang.cycles is lang.cycles  # found once per language
        assert lang._cycle_labels is lang._cycle_labels  # and their labels read once

    def test_cycle_mean_oracle_refuses_a_relation(self):
        with pytest.raises(ip.PreconditionError, match="itinerary language"):
            ip.cycle_mean_pressure(golden_mean(), weights({1: 1.0, 2: 3.0}))


def spread_weights(rng, symbols):
    """Mixed-sign weights near +-300: level sums leave the range of exp within
    three steps, and unit masses at one level can differ by more than e^745."""
    return ip.PerSymbolWeights(
        {s: (-1) ** k * rng.uniform(250.0, 350.0) for k, s in enumerate(symbols)}, 1
    )


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
                assert value == pytest.approx(separated_sum(lang, w, n) / n, rel=1e-12)

    def test_units_expand_once_per_language(self, rng):
        # the tail class of the coprime cycles gets a new unit at every level up to 210
        lang = coprime_cycles((2, 3, 5, 7))
        levels = record_expansions(lang)
        w = spread_weights(rng, lang.symbols)
        ip.capacity_pressure(lang, w, 30, 5)
        shallow = lang.unit_graph(30)
        assert len(levels) == 30
        ip.capacity_pressure(lang, w, 60, 5)
        deep = lang.unit_graph(60)
        # the deeper call expanded levels 30..59 only, and kept every earlier edge
        assert len(levels) == 60
        edges = lambda g: set(zip(g.seg.tolist(), g.src.tolist(), g.sym.tolist()))
        assert deep.n_units > shallow.n_units and edges(shallow) < edges(deep)
        # a shallower call reuses the graph
        assert lang.unit_graph(10) is deep and len(levels) == 60
        expanded = [unit for level in levels for unit in level]
        assert len(expanded) == len(set(expanded))
        # every expanded unit, the root included, is a source
        assert sorted(expanded) == np.unique(deep.src).tolist()
        walk = UnitWalk(lang.symbols).graph_to(lang, 60)
        assert all(np.array_equal(getattr(deep, f), getattr(walk, f)) for f in ("src", "sym", "seg"))

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
            assert value == pytest.approx(separated_sum(lang, w, n) / n, rel=1e-12)
        ip.capacity_pressure(lang, w, 120, 10)
        assert lang.unit_graph(120).n_units <= 120 * len(names) + 1


FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def sums_or_refusal(kernel, g, step, inflow, n_max):
    """A kernel's level sums as bytes, or its GuardError message."""
    try:
        return kernel(g, step, iter(inflow), n_max).tobytes()
    except ip.GuardError as e:
        return str(e)


def assert_whole_graph_bits(g, step, inflow, n_max):
    assert sums_or_refusal(_forward_sums, g, step, inflow, n_max) == sums_or_refusal(
        whole_graph_sums, g, step, inflow, n_max
    )


def empty_word(g):
    start = np.full(g.n_units, NEG_INF)
    start[0] = 0.0
    return [start]


def supports(g, n_max):
    """The units with mass after each level from the empty word, along every edge."""
    alive = np.zeros(g.n_units, dtype=bool)
    alive[0] = True
    out = []
    for _ in range(n_max):
        nxt = np.zeros(g.n_units, dtype=bool)
        nxt[g.seg[alive[g.src]] + 1] = True
        alive = nxt
        out.append(alive)
    return out


#: step weights: small, or spread to +-400 so unit masses drift past e^745 apart
step_weights = st.one_of(st.floats(-5.0, 5.0), st.floats(-400.0, 400.0))


@st.composite
def finite_state_languages(draw):
    """(language, symbol weights): the itinerary language of a random self-map on
    1-60 states over 1-4 cells."""
    n = draw(st.integers(1, 60))
    cells = draw(st.integers(1, 4))
    step = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    label = draw(st.lists(st.integers(1, cells), min_size=n, max_size=n))
    lang = ip.ItineraryLanguage(tuple(range(n)), step, label)
    return lang, np.array([draw(step_weights) for _ in lang.symbols])


@st.composite
def transient_relations(draw):
    """(language, symbol weights): symbols 1..t form a transient block, whose edges
    only go up, feeding a core t+1..q whose symbols have 1-3 successors each."""
    q = draw(st.integers(1, 12))
    t = draw(st.integers(0, q - 1))
    edges = set()
    for i in range(1, q + 1):
        lo = i + 1 if i <= t else t + 1
        ahead = range(min(lo, q), q + 1)
        edges |= {(i, j) for j in draw(st.sets(st.sampled_from(ahead), min_size=1, max_size=3))}
    lang = ip.compile_sft(range(1, q + 1), sorted(edges))
    return lang, np.array([draw(step_weights) for _ in lang.symbols])


@st.composite
def unit_graphs(draw, acyclic: bool = False):
    """(graph, edge steps): 2-40 units, each entered by 1-4 edges, whose sources are
    any unit, or only lower ones when ``acyclic``, so the support empties within
    the unit count."""
    n_units = draw(st.integers(2, 40))
    dst, src = [], []
    for unit in range(1, n_units):
        for _ in range(draw(st.integers(1, 4))):
            dst.append(unit)
            src.append(draw(st.integers(0, unit - 1 if acyclic else n_units - 1)))
    return edge_graph(n_units, src, dst), np.array([draw(step_weights) for _ in src])


def edge_graph(n_units, src, dst) -> UnitGraph:
    """The unit graph of edges src[e] -> dst[e], given sorted by destination."""
    dst = np.array(dst)
    return UnitGraph(
        n_units=n_units,
        src=np.array(src, dtype=np.intp),
        sym=np.zeros(len(dst), dtype=np.intp),
        starts=np.flatnonzero(np.diff(dst, prepend=0)),
        seg=dst - 1,
    )


class TestLevelSumsMatchTheWholeGraph:
    """The kernel runs only on the units that can carry mass; every bit, and
    every refusal, is the whole-graph loop's (``conftest.whole_graph_sums``)."""

    @FUZZ
    @given(finite_state_languages(), st.integers(1, 200))
    def test_finite_state_languages(self, drawn, n_max):
        lang, table = drawn
        g = lang.unit_graph(n_max)
        assert_whole_graph_bits(g, table[g.sym], empty_word(g), n_max)

    @FUZZ
    @given(transient_relations(), st.integers(1, 80))
    def test_relations_with_transient_blocks(self, drawn, n_max):
        lang, table = drawn
        g = lang.unit_graph(n_max)
        assert_whole_graph_bits(g, table[g.sym], empty_word(g), n_max)

    @FUZZ
    @given(finite_state_languages(), st.integers(1, 8), st.integers(0, 60))
    def test_partial_graphs(self, drawn, depth, extra):
        # a graph compiled to ``depth`` runs ``extra`` levels past it: mass that
        # reaches a unit first met at that depth goes nowhere
        lang, table = drawn
        g = lang.unit_graph(depth)
        assert_whole_graph_bits(g, table[g.sym], empty_word(g), depth + extra)

    @FUZZ
    @given(unit_graphs(acyclic=True), st.integers(0, 20))
    def test_supports_that_empty(self, drawn, extra):
        g, step = drawn
        n_max = g.n_units + extra
        assert_whole_graph_bits(g, step, empty_word(g), n_max)
        assert whole_graph_sums(g, step, empty_word(g), n_max)[-1] == NEG_INF

    @FUZZ
    @given(
        st.booleans().flatmap(unit_graphs).flatmap(lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.lists(st.one_of(st.just(NEG_INF), st.floats(-10.0, 10.0)),
                         min_size=d[0].n_units, max_size=d[0].n_units),
                min_size=1, max_size=6,
            ),
        )),
        st.integers(1, 80),
    )
    def test_random_inflows(self, drawn, n_max):
        (g, step), inflow = drawn
        assert_whole_graph_bits(g, step, [np.array(v) for v in inflow], n_max)

    def test_overflow_after_the_support_is_fixed(self, rng):
        lang = random_itinerary(rng, 40, 3)
        g = lang.unit_graph(1000)
        table = np.array([3e305, 4e305, 2e305])
        # the support is fixed by level 40, each of its units entered by one
        # edge from it, so the overflow falls on the gather
        levels = supports(g, 40)
        fixed = next(n for n in range(1, 40) if np.array_equal(levels[n], levels[n - 1]))
        core = levels[fixed]
        assert np.count_nonzero(core[g.src]) == np.count_nonzero(core)
        with pytest.raises(ip.GuardError, match="left the float range at level") as refused:
            _forward_sums(g, table[g.sym], empty_word(g), 1000)
        level = int(str(refused.value).rsplit(" ", 1)[1])
        assert level > 400 and level > fixed + 2
        assert_whole_graph_bits(g, table[g.sym], empty_word(g), 1000)

    def test_dead_edges_inside_a_live_segment(self):
        # unit 10's 16 entering edges alternate between unit 1, which keeps its
        # mass for good, and units 2-9, which lose theirs after level 1.  numpy
        # sums a segment of 8 or more terms pairwise, so the kept segment needs
        # its 8 zeros for the sum to associate as the whole graph's does
        src = [0, 1] + [0] * 8 + [u for dead in range(2, 10) for u in (1, dead)]
        g = edge_graph(11, src, [1, 1] + list(range(2, 10)) + [10] * 16)
        step = np.zeros(len(src))
        step[10::2] = -np.arange(8) / 8
        assert_whole_graph_bits(g, step, empty_word(g), 6)

    def test_coprime_cycles_never_nest(self):
        # the tail class gets a new unit at every level up to 210, so no support
        # lies within the one before it, and every level runs on the whole graph
        lang = coprime_cycles((2, 3, 5, 7))
        g = lang.unit_graph(120)
        levels = supports(g, 120)
        assert not any((levels[n] <= levels[n - 1]).all() for n in range(1, 120))
        table = np.array([0.25, -1.5])
        assert_whole_graph_bits(g, table[g.sym], empty_word(g), 120)


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
            sums = level_log_sums(lang, w, 600)
            growth = (sums[-1] - sums[-61]) / 60
            slack = q * math.log(600 / 540) / 60
            assert ip.spectral_pressure(lang, w) == pytest.approx(growth, abs=slack)

    @pytest.mark.parametrize("q", [2, 8, 32, 64, 128])
    def test_random_blocks_against_dense_eigenvalues(self, rng, q):
        # spreads 50 and 220 take the plain balance, 400 and 1000 the max-plus one
        for spread in (50.0, 220.0, 400.0, 1000.0):
            for _ in range(3 if q < 64 else 1):
                lang = random_sft(rng, q)
                table = {s: rng.uniform(-0.5 * spread, 0.5 * spread) for s in lang.symbols}
                A = lang.adjacency
                edges = [(i, j) for i in lang.symbols for j in lang.symbols if A[i - 1, j - 1]]
                want = dense_log_radius(lang.symbols, edges, table)
                assert ip.spectral_pressure(lang, weights(table)) == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_pure_cycles_take_the_geometric_mean(self, rng, p):
        for scale in (1.0, 10.0, 100.0):
            logs = [rng.uniform(-scale, scale) for _ in range(p)]
            cycle = np.roll(np.diag(np.exp(logs)), 1, axis=1)
            want = math.exp(math.fsum(logs) / p)
            assert _perron_radius(cycle) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "M, squarings",
        [
            (np.roll(np.diag(np.arange(1.0, 9.0)), 1, axis=1), capacity._MAX_SQUARINGS),
            (np.add.outer(*[np.arange(capacity._SQUARE_MAX_Q + 1.0)] * 2) % 7 + 1, 0),
            # t = s/(hi + s) is about 2.5e-101, so t^2 underflows 1e-150: a 2-cycle ...
            (np.array([[0.0, 1.0], [1e-100, 0.0]]), 0),
            # ... and a primitive block; each needs its shift rebuilt as lo grows
            (np.array([[0.0, 1.0], [1e-100, 1e-100]]), 0),
        ],
    )
    def test_squarings_follow_the_block_size_and_least_diagonal(self, M, squarings):
        class Recorded(np.ndarray):
            ndims = []  # of the right operand of every product

            def __matmul__(self, other):
                Recorded.ndims.append(np.ndim(other))
                return super().__matmul__(other)

        want = float(np.max(np.abs(np.linalg.eigvals(M))))
        assert _perron_radius(M.view(Recorded)) == pytest.approx(want, rel=1e-12)
        # after the first check's M @ x, B is squared k times before the first P @ x
        assert Recorded.ndims[1 : squarings + 2] == [2] * squarings + [1]

    def test_iteration_cap_raises_guard(self, monkeypatch):
        seven_cycle = np.roll(np.diag(np.arange(1.0, 8.0)), 1, axis=1)
        assert _perron_radius(seven_cycle) == pytest.approx(5040 ** (1 / 7), rel=1e-12)
        monkeypatch.setattr(capacity, "_MAX_ITER", 3)
        with pytest.raises(ip.GuardError):
            _perron_radius(seven_cycle)

    def test_shift_grows_with_the_lower_bracket(self, monkeypatch):
        # a tiny first row sum makes a tiny shift; rebuilt each time lo passes four
        # times the lo it came from, these take about 980 and 1,840 power steps,
        # and kept from the first check, about 3,540 and 2,690
        two_cycle = np.array([[0.0, 1.0], [1e-100, 0.0]])
        lang = ip.compile_sft(list(range(1, 8)), [(k, k % 7 + 1) for k in range(1, 8)])
        table = {k: -230.0 * (k - 1) / 6 for k in lang.symbols}  # the plain balance's widest spread
        monkeypatch.setattr(capacity, "_MAX_ITER", 1_100)
        assert _perron_radius(two_cycle) == pytest.approx(1e-50, rel=1e-12)
        monkeypatch.setattr(capacity, "_MAX_ITER", 2_000)
        assert ip.spectral_pressure(lang, weights(table)) == pytest.approx(-115.0, abs=1e-11)

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

    def test_language_without_oracle_is_refused(self):
        # a presentation with no exact oracle: no finite-horizon stand-in
        class Unpresented(ip.WordLanguage):
            symbols = (1,)

            def initial_units(self):
                return [(1, 1)]

            def unit_successors(self, unit):
                return [(1, 1)]

        lang, w = Unpresented(), weights({1: 1.0})
        with pytest.raises(ip.PreconditionError):
            ip.pressure_difference(lang, w, w, 0.5)
        with pytest.raises(ip.PreconditionError):
            ip.bowen_root(lang, w, w)


class TestFiniteHorizonBounds:
    def test_lipschitz_between_tilts(self, rng):
        for _ in range(20):
            lang = random_sft(rng, rng.choice((2, 3)))
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            b1, b2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            n = rng.randrange(1, 8)
            s1 = separated_sum(lang, ip.combine_weights(w_phi, w_psi, b1), n)
            s2 = separated_sum(lang, ip.combine_weights(w_phi, w_psi, b2), n)
            assert abs(s1 - s2) / n <= w_psi.rate_max() * abs(b1 - b2) + 1e-10

    def test_strict_decrease_at_finite_n(self, rng):
        for _ in range(20):
            lang = random_sft(rng, 3)
            w_phi = random_weights(rng, lang, -1, 1)
            w_psi = random_weights(rng, lang, 0.5, 2.0)
            b1 = rng.uniform(-1, 1)
            b2 = b1 + rng.uniform(0.05, 1.0)
            n = rng.randrange(1, 8)
            f1 = separated_sum(lang, ip.combine_weights(w_phi, w_psi, b1), n) / n
            f2 = separated_sum(lang, ip.combine_weights(w_phi, w_psi, b2), n) / n
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


class TestRootDriver:
    """The one bracketing driver behind every root and jump search."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("lo0,hi0", [(-3.0, 3.0), (-1.0, 7.0), (1.0, 1.2)])
    def test_kinked_jump_within_bisection_count_plus_one(self, tol, lo0, hi0):
        # the full 3-shift's detect has slope -1 above its root and -D below
        from invpressure import covers

        graph = covers._CoverGraph(full_shift(3), ip.SubsetSpec.whole_space(), 10)
        calls = []

        def detect(lam):
            calls.append(lam)
            return covers._CoverTable(graph, [-lam] * 3, 1).total

        lo, hi, f_lo, f_hi, steps = capacity._find_root(detect, lo0, hi0, tol / 2)
        assert f_lo >= 0.0 > f_hi and lo <= math.log(3) <= hi
        assert hi - lo <= tol
        # two evaluations check the bracket's ends; the rest shrink it
        assert len(calls) - 2 == steps <= math.ceil(math.log2((hi0 - lo0) / tol)) + 1
        # one-sided secants close in on the kink from both ends: at most half
        # the steps of plain bisection, where a chord guess takes all of them
        assert steps <= 0.5 * math.ceil(math.log2((hi0 - lo0) / tol))

    def test_bowen_root_needs_fewer_oracle_calls_than_bisection(self, monkeypatch):
        lang, w_phi, w_psi = golden_mean(), weights({1: 0.0, 2: 0.0}), weights({1: 1.0, 2: 2.0})
        tol, m, err = 1e-9, 1.0, capacity._RTOL
        calls = []
        oracle = capacity.pressure_oracle
        monkeypatch.setattr(capacity, "pressure_oracle", lambda *a: calls.append(a) or oracle(*a))
        cert = ip.bowen_root(lang, w_phi, w_psi, tol)
        itp_calls = len(calls)
        calls.clear()
        # plain bisection from the same slope bracket, on the same stop rule
        f = lambda beta: ip.pressure_difference(lang, w_phi, w_psi, beta)
        p0 = f(0.0)
        lo, hi = p0 / 2.0 - tol, p0 / 1.0 + tol
        assert f(lo) > 0.0 > f(hi)
        beta = 0.5 * (lo + hi)
        res = f(beta)
        while (abs(res) + err) / m > tol:
            lo, hi = (beta, hi) if res > 0.0 else (lo, beta)
            beta = 0.5 * (lo + hi)
            res = f(beta)
        assert itp_calls < len(calls)
        assert abs(cert.beta_hat - beta) <= 2 * tol
        assert itp_calls <= 10  # one-sided secants cost a smooth root no extra calls here

    @pytest.mark.parametrize("lo0,hi0", [(1.0, 2.0), (-5.0, -4.0), (0.29, 0.2999), (0.3001, 0.31)])
    def test_bracket_hint_without_the_root_is_widened(self, lo0, hi0):
        lo, hi, f_lo, f_hi, _ = capacity._find_root(lambda x: 0.3 - x, lo0, hi0, 1e-12)
        assert f_lo >= 0.0 > f_hi
        assert lo <= 0.3 <= hi and hi - lo <= 2e-12

    def test_no_sign_change_raises_guard(self):
        with pytest.raises(ip.GuardError):
            capacity._find_root(lambda x: 1.0, -1.0, 1.0, 1e-9)

    def test_certificate_adds_the_oracle_error(self, rng):
        lang = random_sft(rng, 4)
        w_phi, w_psi = random_weights(rng, lang, -1, 1), random_weights(rng, lang, 0.5, 2.0)
        m = w_psi.rate_min()
        cert = ip.bowen_root(lang, w_phi, w_psi)
        assert cert.error_bound == (abs(cert.residual) + capacity._RTOL) / m <= 1e-9
        sys = ip.FiniteStateSystem(
            ("a", "b"), {("a", "u"): "b", ("b", "u"): "a"}, ("a", "b"), {"a": 1, "b": 2}
        )
        itinerary = ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))
        w_psi = weights({1: 1.0, 2: 3.0})
        cert = ip.bowen_root(itinerary, weights({1: 0.6, 2: 1.0}), w_psi)
        assert cert.error_bound == abs(cert.residual) / w_psi.rate_min()
