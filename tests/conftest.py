"""Shared builders and independent oracles for the test suite.

Oracles here never call the code paths they check: word sets come from
filtered cartesian products, cover optima from explicit antichain
enumeration or an LP solver, roots from generic bisection on closed forms.
The raw unit presentation lives here too: ``initial_units`` and
``unit_successors`` read a relation's units off its ``adjacency`` and an
itinerary language's off its ``step`` and ``label``, one unit at a time.
Every word-enumerating oracle (word lists, cylinder walks, cover optima and
antichains, the separated and spanning sums, the word-level cover value) and
the reference unit walk go through it, never through the compiled unit
graph the library's solvers and its cylinder tree walk.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest

import invpressure as ip
from invpressure.symbolic import MAX_TREE_NODES, MAX_WORDS, NEG_INF, UnitGraph, logsumexp


# ---------------------------------------------------------------------------
# instance builders


def full_shift(q: int) -> ip.SftLanguage:
    syms = list(range(1, q + 1))
    return ip.compile_sft(syms, [(i, j) for i in syms for j in syms])


def golden_mean() -> ip.SftLanguage:
    # forbid symbol 2 after symbol 2
    return ip.compile_sft([1, 2], [(1, 1), (1, 2), (2, 1)])


def single_branch() -> ip.SftLanguage:
    return ip.compile_sft([1], [(1, 1)])


def weights(table: dict, tau: int = 1) -> ip.PerSymbolWeights:
    return ip.PerSymbolWeights(table, tau)


def const_weights(lang: ip.SftLanguage, c: float, tau: int = 1) -> ip.PerSymbolWeights:
    return ip.PerSymbolWeights({s: c for s in lang.symbols}, tau)


def scaled(w: ip.PerSymbolWeights, c: float) -> ip.PerSymbolWeights:
    """The weights c*w(i), on the same tau."""
    return ip.PerSymbolWeights({s: c * v for s, v in w.weights.items()}, w.tau)


def random_sft(rng: random.Random, q: int, extra: float = 0.5) -> ip.SftLanguage:
    """Random relation containing the full cycle 1->2->...->q->1 (irreducible)."""
    syms = list(range(1, q + 1))
    edges = {(i, i % q + 1) for i in syms}
    for i in syms:
        for j in syms:
            if rng.random() < extra:
                edges.add((i, j))
    return ip.compile_sft(syms, sorted(edges))


def sparse_sft(rng: random.Random, q: int) -> ip.SftLanguage:
    """Cycle plus at most one extra edge per symbol (keeps antichain counts tiny)."""
    syms = list(range(1, q + 1))
    edges = {(i, i % q + 1) for i in syms}
    for i in syms:
        if rng.random() < 0.6:
            edges.add((i, rng.choice(syms)))
    return ip.compile_sft(syms, sorted(edges))


def random_weights(rng: random.Random, lang, lo: float, hi: float, tau: int = 1):
    return ip.PerSymbolWeights({s: rng.uniform(lo, hi) for s in lang.symbols}, tau)


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


def golden_itinerary(D: int):
    """Itinerary language of the left shift on bit strings of length D without
    "11" (a 0 shifted in): up to depth D its words are the golden-mean words."""
    states = tuple(x for x in (format(k, f"0{D}b") for k in range(2**D)) if "11" not in x)
    sys = ip.FiniteStateSystem(
        states, {(x, "u"): x[1:] + "0" for x in states}, states,
        {x: 1 + int(x[0]) for x in states},
    )
    return ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))


def coprime_cycles(periods=(2, 3, 5, 7, 11, 13, 17, 19, 23)):
    """Itinerary language of cycles of the given lengths, labelled 1, each fed by a
    tail state labelled 2: the tail class visits lcm(periods) distinct state sets."""
    step, cell_of = {}, {}
    for p in periods:
        cycle = [f"c{p}_{k}" for k in range(p)]
        step.update({x: cycle[(k + 1) % p] for k, x in enumerate(cycle)})
        cell_of.update({x: 1 for x in cycle})
        step[f"t{p}"], cell_of[f"t{p}"] = cycle[0], 2
    names = tuple(step)
    sys = ip.FiniteStateSystem(names, {(x, "u"): y for x, y in step.items()}, names, cell_of)
    return ip.itinerary_language(sys, ip.PartitionSpec(1, {1: ("u",), 2: ("u",)}))


def record_expansions(lang) -> list:
    """Spy on an itinerary language's level expansion: the returned list gets, per
    expanded level, the units that level expands, read off its frontier."""
    levels = []
    expand = lang._expand_level

    def spy():
        levels.append(np.unique(lang._front[0]).tolist())
        expand()

    lang._expand_level = spy
    return levels


def random_finite_state(rng, states: int, cells: int, tau: int, leak: float):
    """(system, spec) whose moves leave the invariant set or are undefined with
    probability ``leak`` each; a leak of 0 gives a valid partition."""
    names = [f"x{k}" for k in range(states)]
    inv = names[: max(1, states - 2)]  # the last states lie outside Q
    controls = ("u", "v", "w")
    trans = {}
    for x in names:
        for u in controls:
            r = rng.random()
            if r < leak / 2:
                continue  # undefined move
            trans[(x, u)] = rng.choice(names[len(inv):] if r < leak else inv)
    cell_of = {x: rng.randint(1, cells) for x in inv}
    words = {i: tuple(rng.choice(controls) for _ in range(tau)) for i in range(1, cells + 1)}
    return ip.FiniteStateSystem(tuple(names), trans, tuple(inv), cell_of), ip.PartitionSpec(tau, words)


# ---------------------------------------------------------------------------
# oracles


def initial_units(lang) -> list:
    """(unit, symbol) pairs of the one-symbol words, by symbol: each symbol is its
    own unit in a relation; an itinerary language splits all its states by label."""
    if isinstance(lang, ip.SftLanguage):
        return [(i, i) for i in lang.symbols]
    return _split(lang, range(len(lang.states)))


def unit_successors(lang, unit) -> list:
    """(unit, symbol) pairs that continue a word class, by symbol: the successors of
    a relation's symbol in its adjacency row, or an itinerary unit's states (sorted
    ids) stepped and split by label."""
    if isinstance(lang, ip.SftLanguage):
        row = lang.adjacency[lang.symbols.index(unit)]
        return [(j, j) for j, a in zip(lang.symbols, row.tolist()) if a]
    return _split(lang, unit)


def _split(lang, group) -> list:
    group = list(group)
    buckets: dict = {}
    for s, y in zip(lang.label[group].tolist(), lang.step[group].tolist()):
        buckets.setdefault(s, set()).add(y)
    return [(tuple(sorted(buckets[s])), s) for s in sorted(buckets)]


def word_weight(word, weights: ip.PerSymbolWeights) -> float:
    """Total weight of a word: w summed over its symbols, left to right (0 for the empty word)."""
    total = 0.0
    for s in word:
        total += weights[s]
    return total


def successors(lang: ip.SftLanguage, symbol: int) -> tuple:
    """The symbols that may follow ``symbol``, from the raw ``unit_successors``."""
    return tuple(j for j, _ in unit_successors(lang, symbol))


def chain_index(measure: ip.MarkovMeasure, symbol: int) -> int:
    """The row and column of ``symbol`` in a Markov measure's matrix."""
    return measure.symbols.index(symbol)


def brute_words(lang: ip.SftLanguage, n: int) -> set:
    """All length-n paths of the relation, by filtering the full product."""
    allowed = set()
    for i in lang.symbols:
        for j in successors(lang, i):
            allowed.add((i, j))
    out = set()
    for cand in itertools.product(lang.symbols, repeat=n):
        if all(p in allowed for p in zip(cand, cand[1:])):
            out.add(cand)
    return out


def words(lang, n: int, max_words: int = MAX_WORDS) -> list:
    """Admissible words of length n in lexicographic order, by a depth-first
    walk of the raw ``initial_units``/``unit_successors`` presentation."""
    if n < 0:
        raise ip.PreconditionError("word length must be >= 0")
    if n == 0:
        return [()]
    out = []
    todo = sorted((((), s, u) for u, s in initial_units(lang)), reverse=True)
    while todo:
        prefix, sym, unit = todo.pop()
        word = prefix + (sym,)
        if len(word) < n:
            todo.extend(sorted(((word, s, u) for u, s in unit_successors(lang, unit)), reverse=True))
        elif len(out) < max_words:
            out.append(word)
        else:
            raise ip.GuardError(f"word enumeration exceeded {max_words} words")
    return out


def cylinders(lang, weights, depth: int, max_nodes: int = MAX_TREE_NODES) -> list:
    """(word, cumulative weights) of every nonempty cylinder up to ``depth``, depth
    first in word order, by a walk of the raw presentation: the reference for
    ``ip.build_cylinder_tree``.  Each cumulative weight adds one term per symbol,
    left to right."""
    out = []
    todo = [((), None, tuple(0.0 for _ in weights))]
    while todo:
        word, unit, cum = todo.pop()
        if word:
            out.append((word, cum))
            if len(out) > max_nodes:
                raise ip.GuardError(f"cylinder walk exceeded {max_nodes} nodes")
        if len(word) < depth:
            succ = initial_units(lang) if unit is None else unit_successors(lang, unit)
            todo.extend(reversed([
                (word + (s,), u, tuple(c + w[s] for c, w in zip(cum, weights))) for u, s in succ
            ]))
    return out


class UnitWalk:
    """The breadth-first walk of a language's units through the raw
    ``initial_units``/``unit_successors`` presentation, one unit at a time,
    extended one depth at a time: the reference for every compiled ``unit_graph``."""

    def __init__(self, symbols):
        self.sym_index = {s: k for k, s in enumerate(symbols)}
        self.units: list = [None]
        self.index: dict = {}
        self.edges: list = []  # (dst, src, sym)
        self.expanded = 0  # units[:expanded] have their out-edges
        self.depth = 0  # every unit of depth < self.depth is expanded
        self.graph = None

    def graph_to(self, lang, depth: int) -> UnitGraph:
        if self.graph is None or (self.depth < depth and self.expanded < len(self.units)):
            while self.depth < depth and self.expanded < len(self.units):
                self._expand_level(lang)
            self.graph = self._compile()
        return self.graph

    def _expand_level(self, lang) -> None:
        end = len(self.units)
        for k in range(self.expanded, end):
            succ = initial_units(lang) if k == 0 else unit_successors(lang, self.units[k])
            for u2, s in succ:
                if u2 not in self.index:
                    self.index[u2] = len(self.units)
                    self.units.append(u2)
                self.edges.append((self.index[u2], k, self.sym_index[s]))
        self.expanded = end
        self.depth += 1

    def _compile(self) -> UnitGraph:
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 3)
        dst, src, sym = np.ascontiguousarray(edges[np.argsort(edges[:, 0], kind="stable")].T)
        return UnitGraph(
            n_units=len(self.units),
            src=src,
            sym=sym,
            starts=np.flatnonzero(np.diff(dst, prepend=0)),
            seg=dst - 1,
        )


def whole_graph_sums(g: UnitGraph, step, inflow, n_max: int) -> np.ndarray:
    """Level log-sums with every level pushed along every edge of g: the reference
    for ``capacity._forward_sums``, which reads the same arguments but touches only
    the units that can carry mass.  A level is one log-sum-exp per unit over its
    entering edges, shifted by that unit's maximum; a level whose masses leave
    the float range raises GuardError."""
    floor = -np.finfo(float).max  # a massless unit's shift: -inf - floor stays -inf
    inflow = iter(inflow)
    live = np.array(next(inflow))
    entered = live[1:]
    out = np.empty(n_max)
    try:
        with np.errstate(divide="ignore", over="raise", invalid="raise"):
            for n in range(n_max):
                vals = live[g.src]
                vals += step
                top = np.maximum.reduceat(vals, g.starts)
                np.maximum(top, floor, out=top)
                vals -= top[g.seg]
                np.exp(vals, out=vals)
                live[0] = NEG_INF  # unit 0, the empty word, has no entering edge
                np.log(np.add.reduceat(vals, g.starts), out=entered)
                entered += top
                add = next(inflow, None)
                if add is not None:
                    np.logaddexp(live, add, out=live)
                out[n] = np.logaddexp.reduce(live)
    except FloatingPointError:
        raise ip.GuardError(f"level sums left the float range at level {n + 1}") from None
    return out


def reference_partition_walk(system: ip.FiniteStateSystem, spec: ip.PartitionSpec):
    """(violations, tau-step map): every cell's states walked per symbol in turn,
    the violations in the order of the symbols, then of ``invariant_set``."""
    q_set = set(system.invariant_set)
    violations, step = [], {}
    for i in spec.symbols:
        for x0 in [x for x in system.invariant_set if system.cell_of[x] == i]:
            x = x0
            for j, u in enumerate(spec.control_words[i], start=1):
                x = system.transition.get((x, u))
                if x is None or x not in q_set:
                    violations.append((i, j, f"state {x0!r} escapes at step {j}"))
                    break
            else:
                step[x0] = x
    return tuple(violations), step


def dense_log_radius(symbols, edges, table) -> float:
    """log of the spectral radius of M[i, j] = [i -> j] * exp(table[i]), by a dense eigensolve."""
    idx = {s: k for k, s in enumerate(symbols)}
    M = np.zeros((len(symbols), len(symbols)))
    for i, j in edges:
        M[idx[i], idx[j]] = math.exp(table[i])
    return math.log(float(np.max(np.abs(np.linalg.eigvals(M)))))


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Generic sign-change bisection (f decreasing or increasing)."""
    f_lo, f_hi = f(lo), f(hi)
    assert f_lo * f_hi <= 0, "oracle bracket has no sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        v = f(mid)
        if (v > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_cover_optimum(lang, step: dict, N: int, D: int) -> float:
    """log of the optimal antichain cover of the whole space, cylinder cost exp(sum of step).

    Plain recursion over (unit, depth) on the language's own successor lists,
    memoized per call.
    """
    memo = {}

    def below(unit, n: int) -> float:
        # best log cost at a depth-n node relative to its own (0 keeps it)
        if n == D:
            return 0.0
        if (unit, n) not in memo:
            succ = initial_units(lang) if unit is None else unit_successors(lang, unit)
            parts = [step[s] + below(u, n + 1) for u, s in succ]
            m = max(parts)
            val = m + math.log(math.fsum(math.exp(p - m) for p in parts))
            memo[unit, n] = min(0.0, val) if n >= N else val
        return memo[unit, n]

    return below(None, 0)


def reference_cover_table(graph, step, N: int):
    """``rel`` and ``alpha`` of ``covers._CoverTable(graph, step, N)`` by a per-node
    ``logsumexp`` pass over the graph's layers."""
    a = [0.0] * graph.leaves
    rel_all, alpha_all = [a] * (graph.D + 1), [a] * (graph.D + 1)
    for n in range(graph.D - 1, -1, -1):
        rel = [logsumexp([step[k] + a[j] for k, j in kids]) for kids in graph.layers[n]]
        a = [v if v < 0.0 else 0.0 for v in rel] if n >= N else rel
        rel_all[n], alpha_all[n] = rel, a
    return rel_all, alpha_all


def nested_bisection_dimension(lang, w: ip.PerSymbolWeights, N: int, D: int) -> float:
    """Root t of crit(t) = 0 by bisection, where crit(t), the lambda at which the
    whole-space optimum with cost exp(-lam*n*tau - t*weight) crosses 1, is itself
    found by bisection."""

    def crit(t: float) -> float:
        def f(lam):
            return log_cover_optimum(lang, {s: -lam * w.tau - t * w[s] for s in lang.symbols}, N, D)

        return bisect_root(f, -60.0, 60.0, 52)

    t_max = math.log(max(2, len(lang.symbols))) / (w.tau * w.rate_min()) + 1.0
    return bisect_root(crit, -1.0, t_max, 52)


def cubic_time_scale_root() -> float:
    """Root of x^3 + x = 1 by bisection; the golden-mean weighted root is -ln(x*)."""
    return bisect_root(lambda x: 1.0 - x - x**3, 0.0, 1.0)


def enumerate_antichain_covers(lang, z_words, N, D, limit=300_000):
    """Every antichain of cylinder words (depths in [N, D]) covering the target.

    Yields lists of words; redundant covers (a chosen word inside another)
    are not generated, which cannot change the minimum.
    """
    count = 0

    def z_state_for(word, zstate):
        if zstate == "inside":
            return "inside"
        matched = []
        for z in zstate:
            if word[: len(z)] == z:
                return "inside"
            if z[: len(word)] == word:
                matched.append(z)
        return matched or None

    def expand(word, unit, zstate):
        nonlocal count
        if zstate is None:
            yield []
            return
        opts = []
        if len(word) >= N:
            opts.append([word])
        if len(word) < D:
            succ = initial_units(lang) if unit is None else unit_successors(lang, unit)
            child_opts = []
            for u2, sym in sorted(succ, key=lambda p: p[1]):
                w2 = word + (sym,)
                child_opts.append(list(expand(w2, u2, z_state_for(w2, zstate))))
            for combo in itertools.product(*child_opts):
                count += 1
                if count > limit:
                    raise RuntimeError("oracle antichain enumeration exploded")
                opts.append([w for part in combo for w in part])
        yield from opts

    zroot = "inside" if z_words is None else [tuple(z) for z in z_words]
    tops = []
    for unit, sym in sorted(initial_units(lang), key=lambda p: p[1]):
        w = (sym,)
        tops.append(list(expand(w, unit, z_state_for(w, zroot))))
    for combo in itertools.product(*tops):
        yield [w for part in combo for w in part]


def brute_cover_min(lang, cost_fn, z_words, N, D) -> float:
    """Exhaustive minimum of sum(cost_fn(word)) over antichain covers."""
    best = math.inf
    for cover in enumerate_antichain_covers(lang, z_words, N, D):
        best = min(best, math.fsum(cost_fn(w) for w in cover))
    return best


def lp_cover_min(lang, cost_fn, z_words, N, D) -> float:
    """Fractional cover optimum by linear programming (laminar constraint matrix)."""
    from scipy.optimize import linprog

    words = [word for word, _ in cylinders(lang, [], D)]

    def under_z(word):
        if z_words is None:
            return True
        return any(
            word[: len(z)] == tuple(z) or tuple(z)[: len(word)] == word for z in z_words
        )

    variables = [w for w in words if N <= len(w) <= D and under_z(w)]
    leaves = [
        w for w in words
        if len(w) == D and (z_words is None or any(w[: len(z)] == tuple(z) for z in z_words))
    ]
    if not leaves:
        return 0.0
    a_ub = []
    for leaf in leaves:
        a_ub.append([-1.0 if leaf[: len(v)] == v else 0.0 for v in variables])
    res = linprog(
        c=[cost_fn(v) for v in variables],
        A_ub=a_ub,
        b_ub=[-1.0] * len(leaves),
        bounds=[(0, None)] * len(variables),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# brute-force reference routes


def separated_sum(lang, weights, n: int, max_words: int = MAX_WORDS) -> float:
    """log of the maximal separated-set sum at horizon n.

    Maximal separated sets pick exactly one point per nonempty cylinder, so
    this is the plain sum over admissible length-n words, enumerated
    explicitly.
    """
    if n < 1:
        raise ip.PreconditionError("n must be >= 1")
    return logsumexp([word_weight(s, weights) for s in words(lang, n, max_words)])


def spanning_sum(lang, weights, n: int, max_nodes: int = MAX_TREE_NODES) -> float:
    """log of the minimal spanning-set sum at horizon n.

    Minimal spanning sets also take one representative per cylinder; computed
    independently of ``separated_sum`` by a greedy cover of the depth-n
    cylinders (one representative each, weights read off the cylinder walk).
    """
    if n < 1:
        raise ip.PreconditionError("n must be >= 1")
    covered: set = set()
    vals = []
    for word, cum in cylinders(lang, [weights], n, max_nodes):
        if len(word) == n and word not in covered:
            covered.add(word)
            vals.append(cum[0])
    return logsumexp(vals)


@dataclass(frozen=True)
class TimeLevelSets:
    """Exact word-level time sets for one budget T.

    ``window_levels`` are the n at which some branch's psi-weight crosses
    T*tau; ``crossing_words[n]`` are the length-(n+1) witnesses.
    ``exceed_levels``/``exceed_words`` hold the already-exceeded levels, up to
    the enumeration bound (beyond it every level exceeds).
    """

    T: float
    tau: int
    window_levels: tuple
    crossing_words: Mapping
    exceed_levels: tuple
    exceed_words: Mapping
    enumeration_bound: int


def compute_level_sets(lang, w_psi, T: float, max_words: int = MAX_WORDS) -> TimeLevelSets:
    """Enumerate the crossing and exceed sets exhaustively (guarded).

    Budget membership is decided in exact rationals on the decimal values the
    floats print as (``Fraction(repr(x))`` for each psi weight and for T), so
    a psi-sum landing on T*tau is inside the budget.  Words are enumerated to
    length floor(T*tau/min_i w_psi(i)) + 1, past which no branch can still be
    inside the budget.
    """
    w_psi.require_positive("psi weights")
    if T <= 0:
        raise ip.PreconditionError("time budget T must be positive")
    psi = {s: Fraction(repr(w)) for s, w in w_psi.weights.items()}
    budget = Fraction(repr(T)) * w_psi.tau
    n_hi = math.floor(budget / min(psi.values()))
    window, crossing, exceed_levels, exceed = [], {}, [], {}
    for n in range(0, n_hi + 2):
        if n >= 1:
            over = tuple(
                s for s in words(lang, n, max_words) if sum(psi[k] for k in s) > budget
            )
            if over:
                exceed_levels.append(n)
                exceed[n] = over
        if n <= n_hi:
            hits = []
            for s in words(lang, n + 1, max_words):
                head = sum(psi[k] for k in s[:n])
                if head <= budget < head + psi[s[n]]:
                    hits.append(s)
            if hits:
                window.append(n)
                crossing[n] = tuple(hits)
    return TimeLevelSets(
        T=T,
        tau=w_psi.tau,
        window_levels=tuple(window),
        crossing_words=crossing,
        exceed_levels=tuple(exceed_levels),
        exceed_words=exceed,
        enumeration_bound=n_hi + 1,
    )


def induced_sum_spanning(lang, w_phi, w_psi, T: float, max_words: int = MAX_WORDS) -> float:
    """The induced sum through minimal spanning sets: greedy one representative
    per crossing cylinder, read off the exhaustive level sets."""
    sets = compute_level_sets(lang, w_psi, T, max_words)
    vals = []
    for n in sets.window_levels:
        reps = sorted({s[:n] for s in sets.crossing_words[n]})
        vals.extend(word_weight(p, w_phi) for p in reps)
    return logsumexp(vals)


def word_cover_value(lang, weights, Z, lam: float, N: int, D: int) -> float:
    """The time-cost cover optimum of ``ip.cover_value``, over explicit admissible words.

    Recurses over every cylinder of the raw presentation with no factoring;
    the word/cylinder bijection makes it agree with ``cover_value`` on every
    instance.
    """
    if not 1 <= N <= D:
        raise ip.PreconditionError(f"need 1 <= N <= D, got N={N}, D={D}")
    if Z.is_empty:
        return 0.0
    targets = set(Z.words or ())
    if () in targets:
        raise ip.PreconditionError("empty word cannot present a cylinder")
    if any(len(word) > D for word in targets):
        raise ip.PreconditionError(f"target words deeper than resolution D={D}")
    prefixes = {word[:k] for word in targets for k in range(1, len(word))}
    length_coeff = -lam * weights.tau
    found = set()

    def value(word, unit, wsum: float, inside: bool) -> float:
        if word in targets:
            found.add(word)
            inside = True
        elif not inside and word not in prefixes:
            return NEG_INF
        own = length_coeff * len(word) + wsum
        if len(word) == D:
            return own
        succ = unit_successors(lang, unit)
        ls = logsumexp([value(word + (s,), u, wsum + weights[s], inside) for u, s in succ])
        return min(own, ls) if len(word) >= N else ls

    total = logsumexp([
        value((s,), u, weights[s], Z.is_whole_space) for u, s in initial_units(lang)
    ])
    if found != targets:
        raise ip.PreconditionError(f"target words {sorted(targets - found)} are not admissible")
    return math.exp(total)


def reference_prefix_masses(masses: Mapping) -> dict:
    """The mass of every prefix of the mass-bearing words, keyed by the prefix
    tuple: one running sum per prefix, over the words in the order of ``masses``."""
    table: dict = {}
    for word, m in masses.items():
        for n in range(1, len(word) + 1):
            key = word[:n]
            table[key] = table.get(key, 0.0) + m
    return table


def reference_lower_bs(measure, w: ip.PerSymbolWeights, tail_window: int = 3):
    """(value, depth_values, slack) of ``ip.lower_bs_pressure``, leaf by leaf and
    depth by depth through ``reference_prefix_masses``."""
    D = measure.depth
    lo = D - tail_window + 1
    mass = reference_prefix_masses(measure.masses)
    depth_sums, value, slack = [0.0] * D, 0.0, 0.0
    for leaf, m in sorted(measure.masses.items()):
        if m <= 0.0:
            continue
        ratios, wsum = [], 0.0
        for n in range(1, D + 1):
            wsum += w[leaf[n - 1]]
            r = -math.log(mass[leaf[:n]]) / wsum
            ratios.append(r)
            depth_sums[n - 1] += m * r
        window = ratios[lo - 1 :]
        value += m * min(window)
        slack = max(slack, max(window) - min(window))
    return value, tuple(depth_sums), slack


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
