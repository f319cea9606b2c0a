"""Core symbolic objects: weights, word enumeration, cylinder trees."""

import functools
import math
import random

import numpy as np
import pytest

import invpressure as ip
from invpressure.capacity import level_log_sums
from invpressure.symbolic import NEG_INF, cyclic_components, logsumexp
from conftest import (
    UnitWalk,
    brute_words,
    coprime_cycles,
    full_shift,
    golden_itinerary,
    golden_mean,
    random_itinerary,
    random_sft,
    single_branch,
    words,
)


def make_range(tau_words, potentials):
    values = sorted({u for w in tau_words.values() for u in w})
    return ip.ControlRange(tuple(values), potentials)


class TestDeriveSymbolWeights:
    def test_single_letter_sum(self):
        crange = ip.ControlRange(("u",), {"phi": {"u": 0.7}})
        spec = ip.PartitionSpec(1, {1: ("u",)})
        w = ip.derive_symbol_weights(crange, spec, "phi")
        assert w[1] == 0.7

    def test_constant_potential_tau3(self):
        c = 0.31
        crange = ip.ControlRange(("u",), {"phi": {"u": c}})
        spec = ip.PartitionSpec(3, {1: ("u", "u", "u")})
        w = ip.derive_symbol_weights(crange, spec, "phi")
        assert w[1] == pytest.approx(3 * c, rel=1e-15)

    def test_mixed_word_against_fold_oracle(self):
        table = {"u": 0.25, "v": -0.5}
        crange = ip.ControlRange(("u", "v"), {"phi": table})
        spec = ip.PartitionSpec(2, {1: ("u", "v")})
        w = ip.derive_symbol_weights(crange, spec, "phi")
        oracle = functools.reduce(lambda acc, sym: acc + table[sym], ("u", "v"), 0.0)
        assert w[1] == pytest.approx(oracle, abs=1e-15)
        assert w[1] == pytest.approx(-0.25, abs=1e-15)

    def test_unknown_potential_and_missing_value(self):
        crange = ip.ControlRange(("u",), {"phi": {"u": 0.0}})
        spec = ip.PartitionSpec(1, {1: ("u",)})
        with pytest.raises(ip.PreconditionError):
            ip.derive_symbol_weights(crange, spec, "nope")
        bad_spec = ip.PartitionSpec(1, {1: ("w",)})
        with pytest.raises(ip.PreconditionError):
            ip.derive_symbol_weights(crange, bad_spec, "phi")


class TestEnumerateWords:
    def test_full_3_shift_n4(self):
        lang = full_shift(3)
        assert len(words(lang, 4)) == 81

    def test_golden_mean_n3_exact_set(self):
        lang = golden_mean()
        got = set(words(lang, 3))
        assert got == brute_words(lang, 3)
        assert got == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)}

    def test_single_state_itinerary(self):
        sys = ip.FiniteStateSystem(("x",), {("x", "u"): "x"}, ("x",), {"x": 1})
        spec = ip.PartitionSpec(1, {1: ("u",)})
        lang = ip.itinerary_language(sys, spec)
        assert words(lang, 5) == [(1, 1, 1, 1, 1)]

    def test_enumeration_guard(self):
        with pytest.raises(ip.GuardError):
            words(full_shift(3), 10, max_words=100)


class TestWordWeight:
    def test_empty_word(self):
        w = ip.PerSymbolWeights({1: 1.0}, 1)
        assert ip.word_weight((), w) == 0.0

    def test_hand_sum(self):
        w = ip.PerSymbolWeights({1: 1.0, 2: 2.0}, 1)
        assert ip.word_weight((1, 2, 1), w) == 4.0

    def test_concatenation_additivity(self):
        rng = random.Random(7)
        w = ip.PerSymbolWeights({i: rng.uniform(-3, 3) for i in (1, 2, 3)}, 2)
        for _ in range(200):
            a = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randrange(0, 9)))
            b = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randrange(0, 9)))
            whole = ip.word_weight(a + b, w)
            parts = ip.word_weight(a, w) + ip.word_weight(b, w)
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_unknown_symbol(self):
        w = ip.PerSymbolWeights({1: 1.0}, 1)
        with pytest.raises(ip.PreconditionError):
            ip.word_weight((1, 9), w)


class TestLogSumExp:
    def test_edge_cases(self):
        assert logsumexp([]) == NEG_INF
        assert logsumexp([NEG_INF, NEG_INF]) == NEG_INF
        assert logsumexp([1.0, math.inf, NEG_INF]) == math.inf
        assert logsumexp([-0.75]) == -0.75

    def test_mixed_terms(self):
        rng = random.Random(11)
        for _ in range(100):
            vals = [rng.uniform(-30, 30) for _ in range(rng.randrange(2, 12))]
            vals += [NEG_INF] * rng.randrange(0, 3)
            rng.shuffle(vals)
            exact = math.log(math.fsum([math.exp(v) for v in vals]))
            assert logsumexp(vals) == pytest.approx(exact, rel=1e-14, abs=1e-14)


class TestCylinderTree:
    def test_full_2_shift_node_count(self):
        tree = ip.build_cylinder_tree(full_shift(2), [], 3)
        assert tree.node_count() == 2 + 4 + 8

    def test_golden_mean_fibonacci_counts(self):
        tree = ip.build_cylinder_tree(golden_mean(), [], 3)
        assert [len(lv) for lv in tree.levels()] == [2, 3, 5]

    def test_depth_one_is_first_level(self):
        for lang in (full_shift(3), golden_mean(), single_branch()):
            tree = ip.build_cylinder_tree(lang, [], 1)
            assert sorted(n.word for n in tree.nodes()) == [(s,) for s in sorted(
                w[0] for w in words(lang, 1))]

    def test_level_counts_match_language(self, rng):
        for lang in (golden_mean(), random_sft(rng, 3)):
            tree = ip.build_cylinder_tree(lang, [], 5)
            for n in range(1, 6):
                assert len(tree.level(n)) == len(words(lang, n))

    def test_cumulative_weights_match_word_weight(self, rng):
        lang = random_sft(rng, 3)
        w = ip.PerSymbolWeights({i: rng.uniform(-2, 2) for i in lang.symbols}, 1)
        tree = ip.build_cylinder_tree(lang, [w], 4)
        for node in tree.nodes():
            assert node.cum[0] == pytest.approx(ip.word_weight(node.word, w), rel=1e-12, abs=1e-12)

    def test_node_guard(self):
        with pytest.raises(ip.GuardError):
            ip.build_cylinder_tree(full_shift(3), [], 12, max_nodes=1000)


def leaf_set(node, depth):
    """Depth-`depth` descendants of a tree node (the cylinder at that resolution)."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.depth == depth:
            out.add(cur.word)
        stack.extend(cur.children)
    return out


class TestLanguageInvariants:
    def langs(self, rng):
        sys = ip.FiniteStateSystem(
            ("a", "b", "c"),
            {("a", "u"): "b", ("b", "u"): "c", ("c", "u"): "a"},
            ("a", "b", "c"),
            {"a": 1, "b": 2, "c": 1},
        )
        spec = ip.PartitionSpec(1, {1: ("u",), 2: ("u",)})
        return [golden_mean(), random_sft(rng, 3), ip.itinerary_language(sys, spec)]

    def test_laminarity(self, rng):
        for lang in self.langs(rng):
            D = 4
            tree = ip.build_cylinder_tree(lang, [], D)
            nodes = list(tree.nodes())
            for a in nodes:
                for b in nodes:
                    la, lb = leaf_set(a, D), leaf_set(b, D)
                    is_prefix = b.word[: len(a.word)] == a.word
                    if is_prefix:
                        assert lb <= la
                    elif a.word[: len(b.word)] == b.word:
                        assert la <= lb
                    else:
                        assert not (la & lb)

    def test_factoriality(self, rng):
        for lang in self.langs(rng):
            for n in range(2, 6):
                lower = set(words(lang, n - 1))
                for w in words(lang, n):
                    assert w[:-1] in lower
                    assert w[1:] in lower

    def test_extension(self, rng):
        for lang in self.langs(rng):
            for n in range(1, 5):
                longer = {w[:-1] for w in words(lang, n + 1)}
                for w in words(lang, n):
                    assert w in longer


class TestValidation:
    def test_partition_spec_rejects_tau_zero(self):
        with pytest.raises(ip.PreconditionError):
            ip.PartitionSpec(0, {1: ()})

    def test_partition_spec_rejects_bad_lengths(self):
        with pytest.raises(ip.PreconditionError):
            ip.PartitionSpec(2, {1: ("u",)})

    def test_control_range_requires_total_potentials(self):
        with pytest.raises(ip.PreconditionError):
            ip.ControlRange(("u", "v"), {"phi": {"u": 0.0}})

    def test_positive_weight_check(self):
        w = ip.PerSymbolWeights({1: 1.0, 2: 0.0}, 1)
        with pytest.raises(ip.PreconditionError):
            w.require_positive()


def random_relation(rng, q: int, irreducible: bool) -> list:
    """Edges on 1..q, every symbol with an out-edge: a full cycle plus random
    edges, or a forward chain plus random edges that never lead back; both
    with self-loops and every edge listed twice in shuffled order."""
    if irreducible:
        edges = [(i, i % q + 1) for i in range(1, q + 1)]
        edges += [(i, j) for i in range(1, q + 1) for j in range(1, q + 1) if rng.random() < 0.2]
    else:
        edges = [(i, min(i + 1, q)) for i in range(1, q + 1)]
        edges += [(i, j) for i in range(1, q + 1) for j in range(i, q + 1) if rng.random() < 0.2]
    edges += [(i, i) for i in range(1, q + 1) if rng.random() < 0.3]
    edges += edges
    rng.shuffle(edges)
    return edges


def strong_components(n: int, edges: list) -> list[set]:
    """Strongly connected components from scipy's independent implementation."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    src, dst = (list(x) for x in zip(*edges)) if edges else ([], [])
    graph = coo_matrix((np.ones(len(edges)), (src, dst)), shape=(n, n))
    count, labels = connected_components(graph, directed=True, connection="strong")
    return [set(np.flatnonzero(labels == c).tolist()) for c in range(count)]


class TestCompiledRelation:
    """A relation compiled to its adjacency: the unit graph and the cyclic blocks read off it."""

    @pytest.mark.parametrize("relabel", [False, True])
    def test_unit_graph_matches_the_walk(self, rng, relabel):
        for q in (1, 2, 3, 5, 8, 17, 33, 64):
            for irreducible in (True, False):
                edges = random_relation(rng, q, irreducible)
                # relabelled symbols are not consecutive, so their ends are bisected
                label = (lambda s: 3 * s - 40) if relabel else (lambda s: s)
                symbols = [label(s) for s in range(1, q + 1)]
                pairs = [(label(i), label(j)) for i, j in edges]
                A = np.zeros((q, q))
                for i, j in edges:
                    A[i - 1, j - 1] = 1.0
                # at depth 1 the walk stops before expanding units 1..q; the closed
                # form carries their edges from the start (see the depth-1 pins below)
                for depth in (2, 7):
                    lang = ip.compile_sft(symbols, pairs)
                    assert np.array_equal(lang.adjacency, A)
                    ours = lang.unit_graph(depth)
                    walk = UnitWalk(lang.symbols).graph_to(lang, depth)
                    assert ours.n_units == walk.n_units == q + 1
                    for name in ("src", "sym", "starts", "seg"):
                        a, b = getattr(ours, name), getattr(walk, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b), (q, depth, name)
                # the complete graph serves every depth, depth 1 included
                fresh = ip.compile_sft(symbols, pairs)
                assert fresh.unit_graph(1) is fresh.unit_graph(7) is fresh.unit_graph(2)

    @pytest.mark.parametrize("edges, table, want", [
        ([(1, 1), (1, 2), (2, 1)], {1: 0.3, 2: -1.1},
         ("0x1.0a742697bccfcp-1", "0x1.abd63eb51b37ap-1", "0x1.cb83a8df526cep-1")),
        ([(1, 2), (1, 6), (2, 1), (3, 4), (3, 5), (4, 1), (4, 5), (5, 5), (5, 6), (6, 1), (6, 2)],
         {1: -0.69, 2: -0.93, 3: -1.57, 4: -0.7, 5: -0.76, 6: 0.28},
         ("0x1.38a664b6d2241p+0", "0x1.af278ad2f110fp+0", "0x1.3b2261be9d8efp+1")),
    ])
    def test_depth_one_reads_the_walks_numbers(self, edges, table, want):
        # the values the walk's depth-1 partial graph gave: the edges out of units
        # 1..q that the complete graph adds carry no mass at depth 1
        w = ip.PerSymbolWeights(table, 1)
        w_pos = ip.PerSymbolWeights({s: abs(v) + 0.5 for s, v in table.items()}, 1)
        whole = ip.SubsetSpec.whole_space()
        got = []
        for value in (
            lambda lang: level_log_sums(lang, w, 1)[0],
            lambda lang: ip.cover_value(lang, w, whole, 0.7, 1, 1),
            lambda lang: ip.bs_cover_value(lang, w_pos, whole, 0.7, 1, 1),
        ):
            got.append(value(ip.compile_sft(sorted(table), edges)).hex())
        assert tuple(got) == want

    def test_unknown_ends_are_refused_by_value(self):
        # -2**63 fits an int64, but its offset from symbol 1 wraps around
        bad_ends = ([10**30, 1], [1, -(2**70)], [1.5, 1], [0, 1], [2**63, 1], [-(2**63), 1], [None, 1], [1, "x"])
        for ends in bad_ends:
            for symbols in ([1, 2], [1, 5]):
                pairs = [[1, 1], [1, symbols[1]], ends, [3, 3]]
                with pytest.raises(ip.PreconditionError) as err:
                    ip.compile_sft(symbols, pairs)
                assert str(err.value) == f"transition ({ends[0]},{ends[1]}) uses unknown symbol"
        for symbols in ([1, 2], [1, 5]):
            # a float end equal to a symbol is that symbol, on either lookup
            lang = ip.compile_sft(symbols, [[1.0, symbols[1]], [symbols[1], 1]])
            assert np.array_equal(lang.adjacency, [[0.0, 1.0], [1.0, 0.0]])
            # a pair of length 3 is no edge, among pairs or among triples
            with pytest.raises(ip.PreconditionError, match=r"^transition \(1,1,1\) uses unknown symbol$"):
                ip.compile_sft(symbols, [[1, symbols[1]], [1, 1, 1], [symbols[1], 1]])
            with pytest.raises(ip.PreconditionError, match=r"^transition \(1,1,1\) uses unknown symbol$"):
                ip.compile_sft(symbols, [[1, 1, 1], [1, symbols[1], 1]])
        # 2**63 turns the ends into floats, in which it equals the symbol 2**63 - 1
        big = 2**63 - 1
        with pytest.raises(ip.PreconditionError, match=rf"^transition \({big + 1},1\) uses unknown symbol$"):
            ip.compile_sft([1, big], [[1, big], [big, 1], [big + 1, 1]])
        # relabelled symbols from an integer array are bisected, and refused by value too
        lang = ip.compile_sft([-37, -34, -31], np.array([[-37, -34], [-34, -31], [-31, -37], [-31, -31]]))
        assert np.array_equal(lang.adjacency, [[0, 1, 0], [0, 0, 1], [1, 0, 1]])
        with pytest.raises(ip.PreconditionError, match=r"^transition \(-34,-33\) uses unknown symbol$"):
            ip.compile_sft([-37, -34, -31], np.array([[-37, -34], [-34, -33], [-31, -37]]))
        edges = np.array([[1, 2], [2, 7], [9, 1]])
        with pytest.raises(ip.PreconditionError, match=r"^transition \(2,7\) uses unknown symbol$"):
            ip.compile_sft([1, 2], edges)
        with pytest.raises(ip.PreconditionError, match=r"^symbols \[2, 4\] have no outgoing"):
            ip.compile_sft([1, 2, 3, 4], np.array([[1, 2], [3, 3], [3, 3]]))

    def test_cyclic_components_match_scipy(self, rng):
        graphs = [
            (1, []), (1, [(0, 0)]), (3, [(1, 1)]),  # isolated vertices, with and without loops
            (400, [(v, v + 1) for v in range(399)]),  # a chain
            (2000, [(v, (v + 1) % 2000) for v in range(2000)]),  # one long cycle
        ]
        for _ in range(60):
            n = rng.randint(1, 40)
            p = rng.choice((0.02, 0.05, 0.1, 0.3))
            graphs.append((n, [(u, v) for u in range(n) for v in range(n) if rng.random() < p]))
        for n, edges in graphs:
            succ = [[] for _ in range(n)]
            for u, v in edges:
                succ[u].append(v)
            comps = cyclic_components(succ)
            want = [c for c in strong_components(n, edges) if len(c) > 1 or (min(c), min(c)) in edges]
            assert sorted(map(sorted, want)) == sorted(comps)
            assert all(c == sorted(c) for c in comps)
            if n > 40:
                continue
            # Tarjan's completion order: no component reaches one completed after it
            reach = np.eye(n)
            for u, v in edges:
                reach[u, v] = 1.0
            for _ in range(n.bit_length()):
                reach = np.minimum(reach @ reach, 1.0)
            reach = reach > 0
            for k, early in enumerate(comps):
                for late in comps[k + 1:]:
                    assert not reach[np.ix_(early, late)].any()


def assert_same_graph(ours, ref, where):
    assert ours.n_units == ref.n_units, where
    for name in ("src", "sym", "starts", "seg"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (where, name)


class TestLevelExpansion:
    """An itinerary language's unit graph, expanded a level at a time, against the
    reference walk over the raw presentation."""

    BUILDERS = {
        "random": [
            (lambda k=k: random_itinerary(random.Random(k), 3 + 7 * k, 1 + k % 5)) for k in range(8)
        ],
        "golden": [lambda: golden_itinerary(10)],
        "coprime": [coprime_cycles],
    }

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_unit_graph_matches_the_walk(self, kind):
        # the coprime cycles never complete, so they stop at depth 30
        depths = (1, 2, 3, 7, 30) + ((1000,) if kind == "random" else ())
        for build in self.BUILDERS[kind]:
            extended = build()
            walk = UnitWalk(extended.symbols)
            for depth in depths:
                fresh = build()
                ref = walk.graph_to(extended, depth)
                assert_same_graph(fresh.unit_graph(depth), ref, (kind, depth, "fresh"))
                assert_same_graph(extended.unit_graph(depth), ref, (kind, depth, "extended"))

    def test_cycles_match_a_plain_walk(self, rng):
        for _ in range(60):
            lang = random_itinerary(rng, rng.randint(1, 80), 2)
            step, cycles, done = lang.step.tolist(), set(), set()
            for x in range(len(step)):
                path = []
                while x not in done and x not in path:
                    path.append(x)
                    x = step[x]
                if x in path:
                    cycles.add(tuple(sorted(path[path.index(x):])))
                done.update(path)
            assert set(lang.cycles) == cycles
            assert sorted(x for c in lang.cycles for x in c) == sorted(set().union(*cycles))
