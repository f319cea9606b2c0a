"""Cylinder-cover outer sums, critical exponents, and the exact tree dual.

All quantities here are infima of weighted sums over covers of a target set
by cylinders with depths in [N, D].  Finite resolution D replaces countable
families: reported values are exact for the truncated problem and monotone
in D.  On the laminar cylinder family the fractional cover optimum equals
the antichain optimum (min-cut on a tree), and the max-flow that certifies
it doubles as the Frostman-type measure.

One unit-factored table (``_CoverTable``) computes that min-cut: the
optimal cost below a cylinder, relative to its own, depends only on the
cylinder's continuation unit and depth, so it is memoized per (unit, depth)
and never materializes L^D.  The cover value, the head prefactor, the
optimal cover (an argmin walk) and the Frostman flow (a proportional push)
are read-outs of it.  ``word_cover_value`` alone walks an explicit cylinder
tree, as an independent reference route.

Critical exponents (the pressure-like jump locations) are found by
bisection on the lambda at which the truncated optimum crosses 1.  For
cylinder-presented targets the crossing is measured relative to the target
words' own cover cost, which removes the fixed head prefactor and makes the
detector track the subtree jump (the whole-space case keeps the literal
threshold 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import GuardError, PreconditionError
from .symbolic import (
    MAX_TREE_NODES,
    NEG_INF,
    CylinderNode,
    PerSymbolWeights,
    WordLanguage,
    build_cylinder_tree,
    logsumexp,
    zero_weights,
)
from .capacity import RootCertificate


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
        uniq = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
        kept: list[tuple[int, ...]] = []
        for w in uniq:
            if not any(w[: len(p)] == p for p in kept):
                kept.append(w)
        return SubsetSpec(tuple(sorted(kept)))

    @property
    def is_whole_space(self) -> bool:
        return self.words is None

    @property
    def is_empty(self) -> bool:
        return self.words is not None and not self.words


def _advance(lang: WordLanguage, unit: object, sym: int) -> object | None:
    succ = lang.initial_units() if unit is None else lang.unit_successors(unit)
    for u, s in succ:
        if s == sym:
            return u
    return None


class _Trie:
    """Prefix tree of the target words, annotated with continuation units."""

    __slots__ = ("children", "terminal", "unit", "depth", "acc")

    def __init__(self, unit, depth):
        self.children: dict[int, _Trie] = {}
        self.terminal = False
        self.unit = unit
        self.depth = depth
        self.acc = 0.0  # absolute log cost of the word ending here


def _build_trie(lang: WordLanguage, Z: SubsetSpec, step: Mapping[int, float], D: int) -> _Trie:
    root = _Trie(None, 0)
    for word in Z.words or ():
        if not word:
            raise PreconditionError("empty word cannot present a cylinder")
        if len(word) > D:
            raise PreconditionError(f"target word {word} deeper than resolution D={D}")
        node, unit = root, None
        for sym in word:
            unit = _advance(lang, unit, sym)
            if unit is None:
                raise PreconditionError(f"target word {word} is not admissible")
            if sym not in node.children:
                child = _Trie(unit, node.depth + 1)
                child.acc = node.acc + step[sym]
                node.children[sym] = child
            node = node.children[sym]
        node.terminal = True
    return root


def _steps(weights: PerSymbolWeights, length_coeff: float, weight_coeff: float) -> dict[int, float]:
    return {s: length_coeff + weight_coeff * weights[s] for s in weights.symbols}


class _CoverTable:
    """The unit-factored cover table of one cost law on one target set.

    A cylinder's log cost ``length_coeff*depth + weight_coeff*weight(s)`` is
    a sum of per-symbol steps, so the optimal cost below a node, relative to
    the node's own cost, depends only on (continuation unit, depth).  A node
    is a unit, a ``_Trie`` node while still inside the target words (a
    terminal continues as its unit), or None for the root of the whole space.
    ``alpha`` is memoized per (node, depth) and each node's children once, so
    one table costs O(units * D) however large L^D is.  The value, the head,
    the optimal cover and the Frostman flow are all read off this table.
    """

    def __init__(self, lang, weights, length_coeff, weight_coeff, Z: SubsetSpec, N: int, D: int):
        if not 1 <= N <= D:
            raise PreconditionError(f"need 1 <= N <= D, got N={N}, D={D}")
        self.lang, self.N, self.D = lang, N, D
        self.step = _steps(weights, length_coeff, weight_coeff)
        self.root = None if Z.is_whole_space else _build_trie(lang, Z, self.step, D)
        self._kids: dict[object, list[tuple[int, object, float]]] = {}
        self._alpha: dict[tuple[object, int], float] = {}

    def children(self, node) -> list[tuple[int, object, float]]:
        """(symbol, child node, log step) of each child cylinder meeting the target."""
        kids = self._kids.get(node)
        if kids is None:
            if isinstance(node, _Trie):
                pairs = [(c.unit if c.terminal else c, s) for s, c in node.children.items()]
            elif node is None:
                pairs = self.lang.initial_units()
            else:
                pairs = self.lang.unit_successors(node)
            kids = self._kids[node] = [(s, u, self.step[s]) for u, s in pairs]
        return kids

    def rel(self, node, n: int) -> float:
        """log cost of the best cover strictly below a depth-n node, relative to its own."""
        alpha = self.alpha
        return logsumexp([st + alpha(c, n + 1) for _, c, st in self.children(node)])

    def alpha(self, node, n: int) -> float:
        """log of the optimal cost at a depth-n node relative to its own: 0 keeps the node."""
        if n == self.D:
            return 0.0
        key = (node, n)
        val = self._alpha.get(key)
        if val is None:
            val = self.rel(node, n)
            if n >= self.N:
                val = min(0.0, val)
            self._alpha[key] = val
        return val

    @property
    def total(self) -> float:
        """log of the optimal cover cost."""
        return self.rel(self.root, 0)

    @property
    def head(self) -> float:
        """log cost of covering the target by its own defining words."""
        if self.root is None:
            return 0.0
        accs, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.terminal:
                accs.append(node.acc)
            stack.extend(node.children.values())
        return logsumexp(accs)


def cover_value(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
) -> float:
    """Optimal cover cost with per-cylinder cost exp(-lam*n*tau + weight(s))."""
    return math.exp(_CoverTable(lang, weights, -lam * weights.tau, 1.0, Z, N, D).total)


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
    return math.exp(_CoverTable(lang, weights, 0.0, -lam, Z, N, D).total)


def word_cover_value(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec,
    lam: float,
    N: int,
    D: int,
    max_nodes: int = MAX_TREE_NODES,
) -> float:
    """Same optimum expressed over explicit admissible words.

    Walks the materialized cylinder tree with no factoring, as an
    independent route; the word/cylinder bijection makes it agree with
    ``cover_value`` on every instance.
    """
    if not 1 <= N <= D:
        raise PreconditionError(f"need 1 <= N <= D, got N={N}, D={D}")
    if Z.is_empty:
        return 0.0
    length_coeff = -lam * weights.tau
    tree = build_cylinder_tree(lang, [weights], D, max_nodes)
    trie = _build_trie(lang, Z, _steps(weights, length_coeff, 1.0), D)

    def value(node: CylinderNode, zstate) -> float:
        if zstate is None:
            return NEG_INF
        if isinstance(zstate, _Trie) and zstate.terminal:
            zstate = "inside"
        own = length_coeff * node.depth + node.cum[0]
        if node.depth == D:
            return own
        parts = []
        for child in node.children:
            sym = child.word[-1]
            sub = zstate if zstate == "inside" else zstate.children.get(sym)
            parts.append(value(child, sub))
        ls = logsumexp(parts)
        return min(own, ls) if node.depth >= N else ls

    zroot = "inside" if Z.is_whole_space else trie
    parts = []
    for child in tree.root.children:
        sub = zroot if zroot == "inside" else zroot.children.get(child.word[-1])
        parts.append(value(child, sub))
    return math.exp(logsumexp(parts))


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
    variant: str = "time",
    max_nodes: int = MAX_TREE_NODES,
) -> CoverSolution:
    """Read one optimal cover off the cover table (ties resolve to the shallower cylinder).

    The argmin walk keeps a node once splitting it costs no less than keeping
    it, so it visits only the cover and its ancestors; ``max_nodes`` bounds
    the number of cylinders visited.
    """
    if variant == "time":
        length_coeff, weight_coeff = -lam * weights.tau, 1.0
    elif variant == "weight":
        weights.require_positive("dimension weight")
        length_coeff, weight_coeff = 0.0, -lam
    else:
        raise PreconditionError(f"unknown cover variant {variant!r}")
    table = _CoverTable(lang, weights, length_coeff, weight_coeff, Z, N, D)
    chosen: list[tuple[tuple[int, ...], float]] = []
    visited = 0
    stack = [(table.root, 0, (), 0.0)]
    while stack:
        node, n, word, acc = stack.pop()
        for sym, child, st in table.children(node):
            visited += 1
            if visited > max_nodes:
                raise GuardError(f"cover read-out exceeded {max_nodes} cylinders")
            m, w, a = n + 1, word + (sym,), acc + st
            if m >= N and (m == D or table.rel(child, m) >= 0.0):
                chosen.append((w, math.exp(a)))
            else:
                stack.append((child, m, w, a))
    chosen.sort()
    words = tuple(w for w, _ in chosen)
    costs = tuple(c for _, c in chosen)
    return CoverSolution(words, costs, math.fsum(costs), lam, N, D)


# ---------------------------------------------------------------------------
# critical exponents


@dataclass(frozen=True)
class JumpEstimate:
    """Bisected location of the infinity-to-zero jump of a cover sum."""

    critical: float
    value_below: float
    value_above: float
    iterations: int
    bracket: tuple[float, float]


def _bisect_jump(detect, lo: float, hi: float, tol: float) -> tuple[float, int, tuple[float, float]]:
    """Bisect the sign change of ``detect`` (positive below, negative above)."""
    g_lo, g_hi = detect(lo), detect(hi)
    expansions = 0
    while g_lo < 0.0 or g_hi > 0.0:
        expansions += 1
        if expansions > 80:
            raise GuardError(f"no jump bracket found on [{lo}, {hi}]")
        width = max(hi - lo, 1.0)
        if g_lo < 0.0:
            lo -= width
            g_lo = detect(lo)
        if g_hi > 0.0:
            hi += width
            g_hi = detect(hi)
    iters = 0
    while hi - lo > tol and iters < 200:
        iters += 1
        mid = 0.5 * (lo + hi)
        if detect(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iters, (lo, hi)


@dataclass(frozen=True)
class PpPressure:
    """Critical time exponent of the lam-discounted cover sums."""

    value: float
    value_below: float
    value_above: float
    iterations: int
    N: int
    D: int


def pp_pressure(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec | None = None,
    N: int = 1,
    D: int = 12,
    tol: float = 1e-9,
) -> PpPressure:
    """Critical lambda of the cover sums with cost exp(-lam*n*tau + weight).

    Bisects where the truncated optimum crosses the head-normalized
    threshold; detection ignores cover elements at or above the target
    words' own depths, which is where the limit lives.
    """
    Z = Z or SubsetSpec.whole_space()
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if Z.is_empty:
        raise PreconditionError("critical exponent of the empty set is undefined")
    tau = weights.tau
    n_detect = N if Z.is_whole_space else max(N, max(len(w) for w in Z.words) + 1)
    if n_detect > D:
        raise PreconditionError("resolution D too shallow for the target words")

    def detect(lam: float) -> float:
        table = _CoverTable(lang, weights, -lam * tau, 1.0, Z, n_detect, D)
        return table.total - table.head

    span = weights.rate_absmax() + math.log(max(2, len(lang.symbols))) / tau + 1.0
    crit, iters, bracket = _bisect_jump(detect, -span, span, tol)
    return PpPressure(
        value=crit,
        value_below=cover_value(lang, weights, Z, max(bracket[0] - tol, crit - 2 * tol), N, D),
        value_above=cover_value(lang, weights, Z, bracket[1] + tol, N, D),
        iterations=iters,
        N=N,
        D=D,
    )


def bs_jump(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    Z: SubsetSpec | None = None,
    N: int = 1,
    D: int = 12,
    tol: float = 1e-9,
) -> JumpEstimate:
    """Direct jump of the weight-cost cover sums exp(-lam*weight(s))."""
    Z = Z or SubsetSpec.whole_space()
    weights.require_positive("dimension weight")
    if Z.is_empty:
        raise PreconditionError("critical exponent of the empty set is undefined")
    n_detect = N if Z.is_whole_space else max(N, max(len(w) for w in Z.words) + 1)
    if n_detect > D:
        raise PreconditionError("resolution D too shallow for the target words")

    def detect(lam: float) -> float:
        table = _CoverTable(lang, weights, 0.0, -lam, Z, n_detect, D)
        return table.total - table.head

    hi0 = math.log(max(2, len(lang.symbols))) / (weights.tau * weights.rate_min()) + 1.0
    crit, iters, bracket = _bisect_jump(detect, -1.0, hi0, tol)
    return JumpEstimate(
        critical=crit,
        value_below=bs_cover_value(lang, weights, Z, max(bracket[0] - tol, crit - 2 * tol), N, D),
        value_above=bs_cover_value(lang, weights, Z, bracket[1] + tol, N, D),
        iterations=iters,
        bracket=bracket,
    )


@dataclass(frozen=True)
class BsDimension:
    """Dimension via the pressure root, with the direct jump as cross-check."""

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
    """Unique root t* of pp_pressure(-t*weights) = 0, certified by bisection.

    The critical-exponent map t -> pp_pressure(-t*w) decreases with slope in
    [-max_rate, -min_rate], so t* lies in [dim/max_rate, dim/min_rate] where
    dim is the zero-potential critical exponent; |residual|/min_rate bounds
    the root error.  The direct weight-cost jump is computed alongside and
    reported for agreement checks.
    """
    Z = Z or SubsetSpec.whole_space()
    weights.require_positive("dimension weight")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    inner = tol / 16.0
    m_rate, big_rate = weights.rate_min(), weights.rate_max()

    def phi(t: float) -> float:
        return pp_pressure(lang, weights.scaled(-t), Z, N, D, inner).value

    dim = pp_pressure(lang, zero_weights(weights.symbols, weights.tau), Z, N, D, inner).value
    lo = dim / big_rate
    hi = dim / m_rate
    pad = max(tol, 0.05 * (hi - lo) + 1e-3)
    lo, hi = lo - pad, hi + pad
    f_lo, f_hi = phi(lo), phi(hi)
    expansions = 0
    while f_lo < 0.0 or f_hi > 0.0:
        expansions += 1
        if expansions > 60:
            raise GuardError(f"no root bracket on [{lo}, {hi}]")
        width = max(hi - lo, 1.0)
        if f_lo < 0.0:
            lo -= width
            f_lo = phi(lo)
        if f_hi > 0.0:
            hi += width
            f_hi = phi(hi)
    t = 0.5 * (lo + hi)
    res = phi(t)
    iters = 0
    while abs(res) / m_rate > tol and hi - lo > tol / 4 and iters < 200:
        iters += 1
        if res > 0.0:
            lo = t
        else:
            hi = t
        t = 0.5 * (lo + hi)
        res = phi(t)
    cert = RootCertificate(t, res, abs(res) / m_rate + inner, (lo, hi), iters)
    jump = bs_jump(lang, weights, Z, N, D, inner)
    return BsDimension(t, cert, jump)


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
    proportion to their capped optima in the cover table; ``max_nodes``
    bounds the number of cylinders visited.
    """
    if Z.is_empty:
        raise PreconditionError("target set is empty at this resolution")
    weights.require_positive("dimension weight")
    table = _CoverTable(lang, weights, 0.0, -lam, Z, N, D)
    total = table.total
    if total == NEG_INF:
        raise PreconditionError("target set carries no flow at this lambda")
    masses: dict[tuple[int, ...], float] = {}
    visited = 0
    stack = [(table.root, 0, (), total)]
    while stack:
        node, n, word, logf = stack.pop()
        if n == D:
            masses[word] = math.exp(logf)
            continue
        ls = table.rel(node, n)
        pushed = []
        for sym, child, st in table.children(node):
            share = st + table.alpha(child, n + 1)
            if share == NEG_INF:
                continue
            visited += 1
            if visited > max_nodes:
                raise GuardError(f"flow read-out exceeded {max_nodes} cylinders")
            pushed.append((child, n + 1, word + (sym,), logf + share - ls))
        stack.extend(reversed(pushed))
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
    """R(lam+eps, N) <= W(lam, N) <= R(lam, N) on computed values."""
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    return SandwichReport(
        lam=lam,
        eps=eps,
        r_at_lam_plus_eps=bs_cover_value(lang, weights, Z, lam + eps, N, D),
        w_at_lam=weighted_cover_value(lang, weights, Z, lam, N, D),
        r_at_lam=bs_cover_value(lang, weights, Z, lam, N, D),
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
    from .capacity import bowen_root

    w_psi.require_positive("scaling weight")
    left = bs_dimension(lang, w_psi, SubsetSpec.whole_space(), tol, 1, D).value
    right = bowen_root(lang, zero_weights(w_psi.symbols, w_psi.tau), w_psi, tol).beta_hat
    return CorollaryReport(left, right)
