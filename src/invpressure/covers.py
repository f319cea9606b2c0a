"""Cylinder-cover outer sums, critical exponents, and the exact tree dual.

All quantities here are infima of weighted sums over covers of a target set
by cylinders with depths in [N, D].  Finite resolution D replaces countable
families: reported values are exact for the truncated problem and monotone
in D.  On the laminar cylinder family the fractional cover optimum equals
the antichain optimum (min-cut on a tree), and the max-flow that certifies
it doubles as the Frostman-type measure.  The target set decides whether a
cylinder lies in it by ``SubsetSpec.contains``, one set lookup per distinct
length of its words; the normalization of its word list and the measures'
support tests use that one rule.

One unit-factored table computes that min-cut: the optimal cost below a
cylinder, relative to its own, depends only on the cylinder's continuation
unit and depth, so L^D is never materialized.  ``_CoverGraph`` compiles the
child lists of one (language, target, D), from ``lang.unit_graph(D)`` and the
target words' trie, and lists the nodes live at each depth.  It is compiled
once per language: ``_cover_graph`` keeps it on the language, next to its
unit walk, keyed by (target, D), so a search, the read-outs after it and every
table of a sandwich share one graph, and no reader may mutate its lists.
Every cost law is exp(length_coeff*depth + weight_coeff*weight(s)), and
``_steps`` alone turns one into per-symbol log steps.
``_CoverTable`` evaluates one cost law on it by an iterative backward pass
over those depths, one log-sum-exp per node with no function call: a node
with one child takes the child's value as is, one with two children the
closed form max + log(1 + exp(min - max)), and only wider nodes an ``fsum``,
each bitwise equal to ``symbolic.logsumexp``.  The cover value, the head
prefactor, the optimal cover (an argmin walk) and the Frostman flow (a
proportional push) are read-outs of the table.  The flow is pushed depth
first in word order, on an explicit stack, through child lists built once
per live node, so a cylinder costs one step, the walk runs in one frame at
any depth, and the stack holds only the pending siblings of one path.

Critical exponents (the pressure-like jump locations) are the lambda at
which the truncated optimum crosses 1, found by the package's one
bracketing driver (``capacity._find_root``: ITP steps inside a sign-checked
bracket, guessing by one-sided secants, which close in on the kink the
log optimum has at its jump), with every evaluation on one compiled graph.
``_jump_estimate`` is the one read-out of a jump, for ``pp_pressure`` and
``bs_jump``: the search, then the cover values just below and above its
final bracket.
For cylinder-presented targets the crossing is measured relative to the target
words' own cover cost, which removes the fixed head prefactor and makes the
detector track the subtree jump (the whole-space case keeps the literal
threshold 1).  ``bs_dimension`` is the zero of Bowen's equation
Phi(t) = pp_pressure(-t*weight) = 0, read by its sign off one search: Phi(t)
has the sign of the log optimum of the weight-cost sums exp(-t*weight(s)),
so the ``bs_jump`` search brackets the root, and its final bracket is the
certificate.  That certificate counts no rounding of the cover values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Mapping, Sequence

from .errors import GuardError, PreconditionError
from .symbolic import (
    MAX_TREE_NODES,
    NEG_INF,
    PerSymbolWeights,
    WordLanguage,
    logsumexp,
    zero_weights,
)
from .capacity import _LOG_MAX, RootCertificate, _find_root, bowen_root


@dataclass(frozen=True)
class SubsetSpec:
    """Target set: the whole space, or a union of admissible cylinders.

    Cylinder lists are normalized to prefix-free antichains (a word with a
    listed prefix is redundant and dropped).
    """

    words: tuple[tuple[int, ...], ...] | None

    @staticmethod
    def whole_space() -> "SubsetSpec":
        return SubsetSpec(None)

    @staticmethod
    def cylinders(words: Sequence[Sequence[int]]) -> "SubsetSpec":
        listed = SubsetSpec(tuple({tuple(w) for w in words}))
        # a word is redundant when a listed word is a proper prefix of it
        return SubsetSpec(
            tuple(sorted(w for w in listed.words if not (w and listed.contains(w[:-1]))))
        )

    @cached_property
    def _lookup(self) -> tuple[frozenset, list[int]]:
        return frozenset(self.words), sorted({len(w) for w in self.words})

    def contains(self, word: tuple[int, ...]) -> bool:
        """Whether the cylinder of ``word`` lies in the set: a listed word is a prefix of it.

        One set lookup per distinct length of the listed words.
        """
        if self.words is None:
            return True
        listed, lengths = self._lookup
        return any(word[:n] in listed for n in lengths)

    @property
    def is_whole_space(self) -> bool:
        return self.words is None

    @property
    def is_empty(self) -> bool:
        return self.words is not None and not self.words


class _CoverGraph:
    """The child lists of the cover tables of one target set, to resolution D.

    A node is a unit of ``lang.unit_graph(D)`` or, while still inside the
    target words, a node of their prefix trie (a terminal continues as its
    unit).  The units' child lists are the graph's own; trie nodes go on a
    copy of them.  The root is unit 0, the empty word, for the whole space,
    and the trie's root otherwise.  The nodes live at each depth are listed
    once: ``layers[n][i]`` holds (symbol index, position at depth n + 1) for
    each child of the i-th node live at depth n.  Building the graph is the
    only step that reads the language, so every cost law on one (language,
    target, D) shares it.
    """

    def __init__(self, lang: WordLanguage, Z: SubsetSpec, D: int):
        self.symbols, self.D, self.whole = lang.symbols, D, Z.is_whole_space
        self.targets: list[tuple[int, ...]] = []  # target words as symbol indices
        root, kids = 0, lang.unit_graph(D).children
        if not Z.is_whole_space:
            kids = list(kids)  # the graph's lists are shared: never extend them
            root = self._add_trie(Z, kids)
        self.layers: list[list[list[tuple[int, int]]]] = []
        # a layer is shared by every depth with the same live nodes (for a
        # relation, every depth after the first)
        seen: dict[tuple[int, ...], tuple[list, list[int]]] = {}
        live = [root]
        for _ in range(D):
            key = tuple(live)
            if key not in seen:
                pos: dict[int, int] = {}
                layer = [[(k, pos.setdefault(c, len(pos))) for k, c in kids[v]] for v in live]
                seen[key] = (layer, list(pos))
            layer, live = seen[key]
            self.layers.append(layer)
        self.leaves = len(live)

    def _add_trie(self, Z: SubsetSpec, kids: list[list[tuple[int, int]]]) -> int:
        """Append the prefix trie of the target words to ``kids``; return its root."""
        index = {s: k for k, s in enumerate(self.symbols)}
        units = len(kids)
        trie: list[dict[int, int]] = [{}]
        targets = set()
        for word in Z.words or ():
            if not word:
                raise PreconditionError("empty word cannot present a cylinder")
            if len(word) > self.D:
                raise PreconditionError(f"target word {word} deeper than resolution D={self.D}")
            path, unit = [], 0
            for sym in word:
                k = index.get(sym)
                unit = next((c for s, c in kids[unit] if s == k), None)
                if unit is None:
                    raise PreconditionError(f"target word {word} is not admissible")
                path.append(k)
            targets.add(tuple(path))
            node = 0
            for k in path[:-1]:
                child = trie[node].get(k)
                if child is None:
                    child = trie[node][k] = units + len(trie)
                    trie.append({})
                elif child < units:  # inside a shorter target word
                    break
                node = child - units
            else:
                trie[node][path[-1]] = unit
        kids.extend(sorted(t.items()) for t in trie)
        self.targets = sorted(targets)
        return units


def _cover_graph(lang: WordLanguage, Z: SubsetSpec, D: int) -> _CoverGraph:
    """The ``_CoverGraph`` of (lang, Z, D), compiled once per language.

    It is kept on the language, keyed by (Z, D), as the unit graph is, so a
    search and the read-outs after it share one graph.
    """
    graphs = lang._cover_graphs
    graph = graphs.get((Z, D))
    if graph is None:
        graph = graphs[Z, D] = _CoverGraph(lang, Z, D)
    return graph


class _CoverTable:
    """The cover table of one cost law on a compiled ``_CoverGraph``.

    A cylinder's log cost is a sum of per-symbol steps (``step[k]`` for the
    k-th symbol), so the optimal cost below a node, relative to the node's
    own cost, depends only on the node and its depth.  One backward pass
    over the graph's layers computes it for every live node:
    ``rel[n][i]`` is the log cost of the best cover strictly below the i-th
    node at depth n, and ``alpha[n][i]`` is the best including the node
    itself (min(0, rel) once n >= N; 0 keeps the node).  The value, the
    head, the optimal cover and the Frostman flow are all read off it.

    The pass runs inline per node, by its number of children, and gives
    bitwise ``symbolic.logsumexp`` of the children's values: one child is its
    value; two are m + log(1.0 + exp(other - m)) with m the larger, which is
    what ``fsum`` rounds the two terms 1.0 and exp(other - m) to; three or
    more take m + log(fsum(exp(v - m))); none give -inf, and an infinite m
    is returned as is.  Every jump step builds one table, and most nodes of
    a sparse relation have one or two children.
    """

    def __init__(self, graph: _CoverGraph, step: Sequence[float], N: int):
        D = graph.D
        if not 1 <= N <= D:
            raise PreconditionError(f"need 1 <= N <= D, got N={N}, D={D}")
        self.graph, self.step = graph, step
        a = [0.0] * graph.leaves
        self.rel: list[list[float]] = [a] * (D + 1)
        self.alpha: list[list[float]] = [a] * (D + 1)
        exp, log, fsum, inf = math.exp, math.log, math.fsum, math.inf
        for n in range(D - 1, -1, -1):
            rel = []
            put = rel.append
            for kids in graph.layers[n]:
                arity = len(kids)
                if arity == 1:
                    k, j = kids[0]
                    put(step[k] + a[j])
                elif arity == 2:
                    (k, j), (k2, j2) = kids
                    m, o = step[k] + a[j], step[k2] + a[j2]
                    if o > m:
                        m, o = o, m
                    if m != inf and m != NEG_INF:
                        # fsum of the two terms 1.0 and exp(o - m) is their rounded sum
                        m += log(1.0 + exp(o - m))
                    put(m)
                elif arity:
                    vals = [step[k] + a[j] for k, j in kids]
                    m = max(vals)
                    if m != inf and m != NEG_INF:
                        m += log(fsum([exp(v - m) for v in vals]))
                    put(m)
                else:
                    put(NEG_INF)
            a = [v if v < 0.0 else 0.0 for v in rel] if n >= N else rel
            self.rel[n], self.alpha[n] = rel, a

    @property
    def total(self) -> float:
        """log of the optimal cover cost."""
        return self.rel[0][0]

    @property
    def head(self) -> float:
        """log cost of covering the target by its own defining words."""
        if self.graph.whole:
            return 0.0
        # a left fold: from Python 3.12 on the built-in sum compensates, so rounds otherwise
        return logsumexp([reduce(add, map(self.step.__getitem__, w)) for w in self.graph.targets])


def _steps(wts: Sequence[float], length_coeff: float, weight_coeff: float) -> list[float]:
    """Per-symbol log steps of the cost law exp(length_coeff*depth + weight_coeff*weight(s))."""
    return [length_coeff + weight_coeff * w for w in wts]


def _table(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    length_coeff: float,
    weight_coeff: float,
    Z: SubsetSpec,
    N: int,
    D: int,
) -> _CoverTable:
    """The cover table of cost law exp(length_coeff*depth + weight_coeff*weight(s))."""
    wts = [weights[s] for s in lang.symbols]
    return _CoverTable(_cover_graph(lang, Z, D), _steps(wts, length_coeff, weight_coeff), N)


def cover_value(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
) -> float:
    """Optimal cover cost with per-cylinder cost exp(-lam*n*tau + weight(s))."""
    return math.exp(_table(lang, weights, -lam * weights.tau, 1.0, Z, N, D).total)


def bs_cover_value(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
) -> float:
    """Optimal cover cost with per-cylinder cost exp(-lam*weight(s)); weights > 0."""
    weights.require_positive("dimension weight")
    return math.exp(_table(lang, weights, 0.0, -lam, Z, N, D).total)


@dataclass(frozen=True)
class CoverSolution:
    """An optimal antichain cover at one (lam, N, D), with per-word costs."""

    words: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...]
    cost: float
    lam: float
    N: int
    D: int


def cover_solution(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
    max_nodes: int = MAX_TREE_NODES,
) -> CoverSolution:
    """Read one optimal cover off the cover table (ties resolve to the shallower cylinder).

    The argmin walk keeps a node once splitting it costs no less than keeping
    it, so it visits only the cover and its ancestors; ``max_nodes`` bounds
    the number of cylinders visited.
    """
    table = _table(lang, weights, -lam * weights.tau, 1.0, Z, N, D)
    layers, symbols, step, rel = table.graph.layers, lang.symbols, table.step, table.rel
    chosen: list[tuple[tuple[int, ...], float]] = []
    visited = 0
    stack = [(0, 0, (), 0.0)]  # (depth, position among the live nodes, word, log cost)
    while stack:
        n, i, word, acc = stack.pop()
        m = n + 1
        for k, j in layers[n][i]:
            visited += 1
            if visited > max_nodes:
                raise GuardError(f"cover read-out exceeded {max_nodes} cylinders")
            w, a = word + (symbols[k],), acc + step[k]
            if m >= N and (m == D or rel[m][j] >= 0.0):
                chosen.append((w, math.exp(a)))
            else:
                stack.append((m, j, w, a))
    chosen.sort()
    words = tuple(w for w, _ in chosen)
    costs = tuple(c for _, c in chosen)
    return CoverSolution(words, costs, math.fsum(costs), lam, N, D)


# ---------------------------------------------------------------------------
# critical exponents


@dataclass(frozen=True)
class JumpEstimate:
    """Location of the infinity-to-zero jump of a cover sum, with its final bracket."""

    critical: float
    value_below: float
    value_above: float
    iterations: int
    bracket: tuple[float, float]


def _detect_depth(Z: SubsetSpec, N: int, D: int) -> int:
    """Least cover depth the jump detection counts: below the target words' own depths."""
    if Z.is_empty:
        raise PreconditionError("critical exponent of the empty set is undefined")
    n_detect = N if Z.is_whole_space else max(N, max(len(w) for w in Z.words) + 1)
    if n_detect > D:
        raise PreconditionError("resolution D too shallow for the target words")
    return n_detect


def _jump(graph: _CoverGraph, steps, n_detect: int, lo: float, hi: float, tol: float):
    """Sign change of the head-normalized optimum of the cost law lam -> steps(lam).

    Returns (lo, hi, the head-normalized log optimum at hi, steps taken):
    the final bracket, at most ``tol`` wide.  The critical value is its
    upper end, where the optimum was seen below the threshold.
    """

    def detect(lam: float) -> float:
        table = _CoverTable(graph, steps(lam), n_detect)
        return table.total - table.head

    lo, hi, _, f_hi, iters = _find_root(detect, lo, hi, 0.5 * tol)
    return lo, hi, f_hi, iters


def _jump_estimate(
    lang: WordLanguage, Z: SubsetSpec, N: int, D: int, steps, lo: float, hi: float, tol: float
) -> tuple[JumpEstimate, float]:
    """The jump of the cost law lam -> steps(lam) on (lang, Z, D), with its flanking values.

    Detection ignores cover elements at or above the target words' own
    depths, which is where the limit lives; the values just below and above
    the final bracket are the optima at the least depth N, inf for one above
    the float range.  Returns the estimate and the searched log optimum at
    its critical end.
    """
    n_detect = _detect_depth(Z, N, D)
    graph = _cover_graph(lang, Z, D)
    lo, hi, f_hi, iters = _jump(graph, steps, n_detect, lo, hi, tol)

    def value(lam: float) -> float:
        total = _CoverTable(graph, steps(lam), N).total
        return math.exp(total) if total <= _LOG_MAX else math.inf
    return JumpEstimate(hi, value(lo - tol), value(hi + tol), iters, (lo, hi)), f_hi


def pp_pressure(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec | None = None,
    N: int = 1,
    D: int = 12,
    tol: float = 1e-9,
) -> JumpEstimate:
    """Critical lambda of the cover sums with cost exp(-lam*n*tau + weight).

    Searches where the truncated optimum crosses the head-normalized
    threshold, every evaluation on one compiled cover graph.  The critical
    value is the upper end of a final bracket at most ``tol`` wide.
    """
    Z = Z or SubsetSpec.whole_space()
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    wts, tau = [weights[s] for s in lang.symbols], weights.tau
    span = weights.rate_absmax() + math.log(max(2, len(lang.symbols))) / tau + 1.0
    steps = lambda lam: _steps(wts, -lam * tau, 1.0)
    return _jump_estimate(lang, Z, N, D, steps, -span, span, tol)[0]


def bs_jump(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec | None = None,
    N: int = 1,
    D: int = 12,
    tol: float = 1e-9,
) -> JumpEstimate:
    """Direct jump of the weight-cost cover sums exp(-lam*weight(s)).

    The critical value is the upper end of a final bracket at most ``tol``
    wide.
    """
    return _bs_jump(lang, weights, Z or SubsetSpec.whole_space(), N, D, tol)[0]


def _bs_jump(
    lang: WordLanguage, weights: PerSymbolWeights, Z: SubsetSpec, N: int, D: int, tol: float
) -> tuple[JumpEstimate, float]:
    """``bs_jump``, with the searched log optimum at its critical end."""
    weights.require_positive("dimension weight")
    wts = [weights[s] for s in lang.symbols]
    hi0 = math.log(max(2, len(lang.symbols))) / (weights.tau * weights.rate_min()) + 1.0
    return _jump_estimate(lang, Z, N, D, lambda lam: _steps(wts, 0.0, -lam), -1.0, hi0, tol)


@dataclass(frozen=True)
class BsDimension:
    """Dimension as the zero of Bowen's equation, with the jump search that finds it.

    ``certificate`` is the search's final bracket, and ``value`` its upper
    end, ``jump.critical``.
    """

    value: float
    certificate: RootCertificate
    jump: JumpEstimate

    @property
    def root_jump_gap(self) -> float:
        return abs(self.value - self.jump.critical)


def bs_dimension(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec | None = None,
    tol: float = 1e-6,
    N: int = 1,
    D: int = 12,
) -> BsDimension:
    """Unique root t* of Bowen's equation Phi(t) = pp_pressure(-t*weights) = 0.

    Phi(t) is where the head-normalized log cover optimum under cost
    exp(-lambda*n*tau - t*weight(s)), falling in lambda, crosses 0, so Phi(t)
    has the sign of that optimum at lambda = 0, and t* is the jump of the
    weight-cost sums: one ``bs_jump`` search at tolerance tol*min(1/16, r/2),
    r the least rate, finds it.  Its final bracket [lo, hi] is the
    certificate: root hi, error bound hi - lo (wider than the tolerance when
    the search stops at float resolution), and residual the searched log
    optimum at hi, below 0.  The bound counts no rounding of cover values.
    """
    Z = Z or SubsetSpec.whole_space()
    weights.require_positive("dimension weight")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    inner = tol * min(1.0 / 16.0, 0.5 * weights.rate_min())
    jump, residual = _bs_jump(lang, weights, Z, N, D, inner)
    lo, hi = jump.bracket
    return BsDimension(hi, RootCertificate(hi, residual, hi - lo, (lo, hi), jump.iterations), jump)


# ---------------------------------------------------------------------------
# fractional covers, tree flows, Frostman measure


@dataclass(frozen=True)
class FrostmanWeights:
    """Max-flow witness: leaf masses capped by exp(-lam*weight) on every node."""

    masses: Mapping[tuple[int, ...], float]
    total: float
    lam: float
    N: int
    D: int

    def normalized(self) -> dict[tuple[int, ...], float]:
        if self.total <= 0.0:
            raise PreconditionError("cannot normalize a null flow")
        return {w: m / self.total for w, m in self.masses.items()}


# perfbench/tracing.py rebinds this by name
def weighted_cover_value(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
) -> float:
    """Fractional cover optimum at resolution D.

    On the laminar cylinder family the fractional and antichain optima
    coincide (min-cut on a tree), so this is the cover table's total under
    caps exp(-lam*weight(s)): the value of the max flow ``frostman_measure``
    pushes.
    """
    return bs_cover_value(lang, weights, Z, lam, N, D)


def frostman_measure(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
    max_nodes: int = MAX_TREE_NODES,
) -> FrostmanWeights:
    """Depth-D leaf masses of the maximal flow under the cover caps.

    The flow saturates to total = weighted_cover_value (strong duality on
    trees), and every cylinder with N <= depth <= D holds mass at most
    exp(-lam*weight): dividing by the total yields the Frostman-type bounds
    with constant 1/total.  Each node passes its flow to its children in
    proportion to their capped optima in the cover table, depth first in
    word order, so the leaves come out in word order; ``max_nodes`` bounds
    the number of cylinders that receive flow.  A total above the float
    range is refused with GuardError.
    """
    if Z.is_empty:
        raise PreconditionError("target set is empty at this resolution")
    weights.require_positive("dimension weight")
    table = _table(lang, weights, 0.0, -lam, Z, N, D)
    layers, symbols, step = table.graph.layers, lang.symbols, table.step
    rel, alpha = table.rel, table.alpha
    total = table.total
    if total == NEG_INF:
        raise PreconditionError("target set carries no flow at this lambda")
    if not total <= _LOG_MAX:
        raise GuardError(f"flow total exp({total!r}) at lambda={lam!r} leaves the float range "
                         f"(weights spread by {weights.rate_max() / weights.rate_min():.3g})")
    # each live node, from the leaves' parents up: (its flowing children as
    # (child, word suffix, log share), its log optimum below, whether its
    # children are leaves)
    suffixes = [(s,) for s in symbols]
    below: list = [None] * table.graph.leaves
    for n in range(D - 1, -1, -1):
        alpha1, final = alpha[n + 1], n == D - 1
        below = [
            ([(below[j], suffixes[k], share) for k, j in kids for share in (step[k] + alpha1[j],)
              if share != NEG_INF], ls, final)
            for kids, ls in zip(layers[n], rel[n])
        ]
    exp = math.exp
    masses: dict[tuple[int, ...], float] = {}
    visited = 0
    stack = [(below[0], (), total)]  # (node, word, log flow)
    pop, push = stack.pop, stack.append
    while stack:
        (out, ls, final), word, logf = pop()
        visited += len(out)
        if visited > max_nodes:
            raise GuardError(f"flow read-out exceeded {max_nodes} cylinders")
        if final:
            for _, suffix, share in out:
                masses[word + suffix] = exp(logf + share - ls)
        else:
            for node, suffix, share in reversed(out):
                push((node, word + suffix, logf + share - ls))
    return FrostmanWeights(masses, math.exp(total), lam, N, D)


@dataclass(frozen=True)
class SandwichReport:
    """Computed two-sided comparison of weight-cost and fractional optima."""

    lam: float
    eps: float
    r_at_lam_plus_eps: float
    w_at_lam: float
    r_at_lam: float

    @property
    def holds(self) -> bool:
        slack = 1e-9 * max(1.0, abs(self.r_at_lam)) + 1e-12
        return (
            self.r_at_lam_plus_eps <= self.w_at_lam + slack
            and self.w_at_lam <= self.r_at_lam + slack
        )


def sandwich_check(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    eps: float,
    N: int,
    D: int,
) -> SandwichReport:
    """R(lam+eps, N) <= W(lam, N) <= R(lam, N) on computed values.

    On the cylinder tree W(lam) = R(lam) by min-cut duality
    (``weighted_cover_value``), so one table gives both.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    r_plus = bs_cover_value(lang, weights, Z, lam + eps, N, D)
    r_at_lam = bs_cover_value(lang, weights, Z, lam, N, D)
    return SandwichReport(
        lam=lam, eps=eps, r_at_lam_plus_eps=r_plus, w_at_lam=r_at_lam, r_at_lam=r_at_lam
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Both routes to the same number: dimension of the scaling weight vs Bowen root."""

    bs_value: float
    root_value: float

    @property
    def gap(self) -> float:
        return abs(self.bs_value - self.root_value)


def corollary_check(
    lang: WordLanguage,
    w_psi: PerSymbolWeights,
    D: int = 12,
    tol: float = 1e-7,
) -> CorollaryReport:
    """dim(psi, whole space) against the zero-potential Bowen root."""
    w_psi.require_positive("scaling weight")
    left = bs_dimension(lang, w_psi, SubsetSpec.whole_space(), tol, 1, D).value
    right = bowen_root(lang, zero_weights(w_psi.symbols, w_psi.tau), w_psi, tol).beta_hat
    return CorollaryReport(left, right)
