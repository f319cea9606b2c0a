"""Cylinder measures and the desk-scale variational-principle harness.

Candidate measures are explicit: Markov chains supported on the transition
relation (including Bernoulli products and the max-entropy chain built from
Perron eigenvectors), plus whatever the Frostman flow produces.  Their
measure-theoretic lower pressure is approximated per branch by the decay
ratio -log(mass)/weight, with the liminf proxied by the minimum over a
trailing depth window; the window oscillation is reported as the slack of
every finite-depth comparison.

A Markov chain is evaluated on the depth-D cylinders by one depth-first walk
on an explicit stack, reading each unit's children from lists built once.
A measure's shallower masses come from a prefix trie of node ids, built once
per measure from its words in sorted order, with each node's mass summed
over its words in the order of the mass table; a prefix is found by
bisecting the sorted words, so no table keyed by prefix is kept.
``lower_bs_pressure`` computes each cylinder's ratio once, on its trie node,
and reads every branch's ratios off its leaf.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import add, mul, sub
from typing import Mapping, Sequence

import numpy as np

from .errors import GuardError, PreconditionError
from .symbolic import MAX_TREE_NODES, PerSymbolWeights, SftLanguage, WordLanguage
from .capacity import _RTOL, _log_radius
from .covers import BsDimension, SubsetSpec, bs_dimension, frostman_measure


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov chain over the symbols, supported on the relation."""

    symbols: tuple[int, ...]
    matrix: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]

    def __post_init__(self):
        P = np.asarray(self.matrix)
        pi = np.asarray(self.stationary)
        q = len(self.symbols)
        if P.shape != (q, q) or pi.shape != (q,):
            raise PreconditionError("matrix/stationary shapes do not match the symbols")
        if np.any(P < -1e-15) or np.any(pi < -1e-15):
            raise PreconditionError("negative probabilities")
        if not np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            raise PreconditionError("rows must sum to 1")
        if not np.allclose(pi @ P, pi, rtol=0.0, atol=1e-9):
            raise PreconditionError("stationary vector is not invariant")
        if not math.isclose(float(pi.sum()), 1.0, abs_tol=1e-9):
            raise PreconditionError("stationary vector must sum to 1")

    def check_support(self, lang: WordLanguage) -> None:
        """Refuse a measure on other symbols than the language's, and one that puts
        mass on a transition the relation forbids (the first in row-major order)."""
        if self.symbols != lang.symbols:
            raise PreconditionError(
                f"measure on symbols {self.symbols} does not match the language's {lang.symbols}"
            )
        if isinstance(lang, SftLanguage):
            forbidden = np.argwhere((np.asarray(self.matrix) > 0.0) & (lang.adjacency == 0.0))
            if len(forbidden):
                i, j = (self.symbols[k] for k in forbidden[0])
                raise PreconditionError(f"measure puts mass on forbidden transition {i}->{j}")


def bernoulli_measure(lang: WordLanguage, probs: Sequence[float]) -> MarkovMeasure:
    """Product measure with the given symbol probabilities."""
    return markov_measure(lang, [probs] * len(lang.symbols), probs)


def markov_measure(
    lang: WordLanguage,
    matrix: Sequence[Sequence[float]],
    stationary: Sequence[float] | None = None,
) -> MarkovMeasure:
    """Markov chain from an explicit stochastic matrix (stationary vector solved if omitted)."""
    q = len(lang.symbols)
    if len(matrix) != q or any(len(row) != q for row in matrix):
        raise PreconditionError(f"need {q} rows of {q} probabilities, one per symbol")
    P = np.asarray([[float(x) for x in row] for row in matrix])
    if stationary is None:
        eigvals, eigvecs = np.linalg.eig(P.T)
        k = int(np.argmin(np.abs(eigvals - 1.0)))
        pi = np.abs(np.real(eigvecs[:, k]))
        pi = pi / pi.sum()
    else:
        pi = np.asarray([float(x) for x in stationary])
    mu = MarkovMeasure(
        lang.symbols,
        tuple(tuple(row) for row in P.tolist()),
        tuple(float(x) for x in pi),
    )
    mu.check_support(lang)
    return mu


def parry_measure(lang: SftLanguage) -> MarkovMeasure:
    """Max-entropy Markov chain of the relation: P = A v / (rho v_a) from the right
    Perron vector v, with its stationary vector solved by ``markov_measure``.

    v is unique and strictly positive exactly when one cyclic block attains the
    top radius and it is the only block that no edge leaves (Berman and
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 2).  That
    is read off the block structure, radii within the spectral oracle's
    relative 2*_RTOL counting as tied, so rounding noise in v never decides.
    """
    if not isinstance(lang, SftLanguage):
        raise PreconditionError("the max-entropy chain needs a transition relation")
    A = lang.adjacency
    radii = [_log_radius(B, np.zeros(len(B))) for _, B in lang.cyclic_blocks]
    top = max(radii) + math.log1p(-2 * _RTOL)
    basic = [r >= top for r in radii]
    final = [A[block].sum() == B.sum() for block, B in lang.cyclic_blocks]
    if sum(basic) != 1 or basic != final:  # row a of P divides by v[a]
        raise PreconditionError(
            "the relation's Perron vector has a zero entry (the relation is reducible),"
            " so its max-entropy chain is undefined"
        )
    eigvals, eigvecs = np.linalg.eig(A)
    k = int(np.argmax(np.real(eigvals)))
    rho = float(np.real(eigvals[k]))
    v = np.abs(np.real(eigvecs[:, k]))
    return markov_measure(lang, A * v / (rho * v[:, None]))


class CylinderMeasure:
    """Probability masses on the depth-D cylinders of a language.

    Masses of shallower cylinders are the sums over their depth-D
    refinements, so refinement consistency is structural.  Words missing
    from the table (in particular inadmissible ones) carry mass 0.
    """

    def __init__(self, lang: WordLanguage, depth: int, masses: Mapping[tuple[int, ...], float]):
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        total = math.fsum(masses.values())
        if any(m < -1e-15 for m in masses.values()):
            raise PreconditionError("negative cylinder mass")
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise PreconditionError(f"cylinder masses sum to {total}, expected 1")
        if any(len(w) != depth for w in masses):
            raise PreconditionError("all mass-bearing words must have the cap depth")
        self.lang = lang
        self.depth = depth
        self.masses = dict(masses)

    @cached_property
    def _trie(self) -> "_PrefixTrie":
        return _PrefixTrie(self.masses)

    def mass(self, word: Sequence[int]) -> float:
        word = tuple(word)
        if len(word) == 0:
            return 1.0
        if len(word) == self.depth:
            return self.masses.get(word, 0.0)
        if len(word) > self.depth:
            raise PreconditionError("word deeper than the measure's resolution")
        trie = self._trie
        words = trie.words
        i = bisect_left(words, word)
        if i == len(words) or words[i][: len(word)] != word:
            return 0.0
        v, up = trie.leaf[i], trie.up
        for _ in range(self.depth - len(word)):
            v = up[v]
        return trie.mass[v]

    def supported_on(self, Z: SubsetSpec) -> bool:
        return Z.contains(()) or all(Z.contains(leaf) for leaf, m in self.masses.items() if m > 0.0)


class _PrefixTrie:
    """The prefix trie of a measure's words, by node id.

    The words are taken in sorted order and their prefixes numbered on first
    sight, node 0 being the empty word, so a parent's id is below its
    children's.  ``words`` lists the words in that order and ``leaf[i]`` is
    the node of ``words[i]``; ``up[v]`` and ``sym[v]`` are node v's parent
    and last symbol.  ``mass[v]`` adds the masses of the words below v one
    at a time, in the order of the mass table.  A prefix is found by
    bisecting ``words``, so the trie keeps no table keyed by prefix.
    """

    def __init__(self, masses: Mapping[tuple[int, ...], float]):
        table = list(masses)
        order = sorted(range(len(table)), key=table.__getitem__)
        up, sym = array("q", [0]), [0]
        node = array("q", bytes(8 * len(table)))  # each word's node, in table order
        path, prev = [0], ()
        for k in order:
            word = table[k]
            n = 0  # the length of the prefix it shares with the word before it
            for a, b in zip(word, prev):
                if a != b:
                    break
                n += 1
            del path[n + 1 :]
            v = path[n]
            for s in word[n:]:
                up.append(v)
                sym.append(s)
                v = len(sym) - 1
                path.append(v)
            node[k] = v
            prev = word
        mass = array("d", bytes(8 * len(sym)))
        for v, m in zip(node, masses.values()):
            while v:
                mass[v] += m
                v = up[v]
        self.words = list(map(table.__getitem__, order))
        self.leaf = array("q", map(node.__getitem__, order))
        self.up, self.sym, self.mass = up, sym, mass


def cylinder_masses(
    mu: MarkovMeasure, lang: WordLanguage, depth: int, max_nodes: int = MAX_TREE_NODES
) -> CylinderMeasure:
    """Evaluate a Markov chain on all depth-D cylinders: pi_{s0} * prod P.

    The cylinders are walked depth first on the children of
    ``lang.unit_graph(depth)``, listed once per unit, by an explicit stack
    that yields them in reverse word order, which is the order of the
    returned masses.  ``max_nodes`` bounds the number of cylinders visited.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    mu.check_support(lang)
    kids = lang.unit_graph(depth).children
    symbols, matrix = lang.symbols, mu.matrix
    suffixes = [(s,) for s in symbols]
    # each unit's children: (child unit, word suffix, chain state); the chain
    # shares the language's symbols, so a symbol's index is its state
    out = [[(c, suffixes[k], k) for k, c in row] for row in kids]
    masses: dict[tuple[int, ...], float] = {}
    visited, last = 0, depth - 1
    stack = [((), 0, mu.stationary, 1.0)]  # (word, unit, transition row of its last symbol, mass)
    pop, push = stack.pop, stack.append
    while stack:
        word, unit, row, m = pop()
        children = out[unit]
        visited += len(children)
        if visited > max_nodes:
            raise GuardError(f"cylinder walk exceeded {max_nodes} cylinders")
        if len(word) == last:
            for _, suffix, p in reversed(children):
                masses[word + suffix] = m * row[p]
        else:
            for c, suffix, p in children:
                push((word + suffix, c, matrix[p], m * row[p]))
    return CylinderMeasure(lang, depth, masses)


@dataclass(frozen=True)
class LowerBsEstimate:
    """Mass-weighted liminf proxy of the per-branch decay ratios.

    ``depth_values[n-1]`` is the plug-in functional at depth n; the reported
    value uses each branch's minimum ratio over the last ``tail_window``
    depths, so it lower-bounds every depth value inside the window.
    """

    value: float
    depth_values: tuple[float, ...]
    slack: float
    tail_window: int
    depth: int


def lower_bs_pressure(
    measure: CylinderMeasure,
    weights: PerSymbolWeights,
    tail_window: int = 3,
) -> LowerBsEstimate:
    """Finite-depth lower pressure of a cylinder measure for positive weights."""
    weights.require_positive("ratio weight")
    D = measure.depth
    if not 1 <= tail_window <= D:
        raise PreconditionError("tail window must lie in 1..depth")
    lo = D - tail_window + 1
    trie, w = measure._trie, {s: weights[s] for s in measure.lang.symbols}
    up, sym, mass = trie.up, trie.sym, trie.mass
    # each cylinder's ratio once, its weight summed along its path from the
    # root (a parent's node id is below its child's)
    log = math.log
    wsum, ratio = array("d", bytes(8 * len(mass))), [0.0] * len(mass)
    for v in range(1, len(mass)):
        m = mass[v]
        if m > 0.0:
            u = up[v]
            if u and mass[u] <= 0.0:
                raise PreconditionError("a prefix of a positive-mass word has no positive mass")
            wsum[v] = ws = wsum[u] + w[sym[v]]
            ratio[v] = -log(m) / ws
    del wsum
    # the words in sorted order that carry mass, and their leaves
    ms = list(map(measure.masses.__getitem__, trie.words))
    keep = [m > 0.0 for m in ms]
    ms, col = list(compress(ms, keep)), list(compress(trie.leaf, keep))
    # depth by depth from the leaves up, each word's cylinder there and its
    # ratio; every sum runs over the words in order, one term at a time
    depth_sums, tail = [0.0] * D, []
    for n in range(D, 0, -1):
        rc = list(map(ratio.__getitem__, col))
        depth_sums[n - 1] = reduce(add, map(mul, ms, rc), 0.0)
        if n >= lo:
            tail.append(rc)
        col = list(map(up.__getitem__, col))
    tail.reverse()
    lows, highs = list(map(min, zip(*tail))), list(map(max, zip(*tail)))
    return LowerBsEstimate(
        value=reduce(add, map(mul, ms, lows), 0.0),
        depth_values=tuple(depth_sums),
        slack=max(chain((0.0,), map(sub, highs, lows))),
        tail_window=tail_window,
        depth=D,
    )


@dataclass(frozen=True)
class VpCandidate:
    name: str
    value: float
    slack: float
    gap: float
    within_upper_bound: bool


@dataclass(frozen=True)
class VpReport:
    """Variational-principle check: candidates against the subset dimension."""

    dimension: float
    dimension_detail: BsDimension
    candidates: tuple[VpCandidate, ...]
    best_name: str
    best_value: float


def vp_check(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    K: SubsetSpec,
    candidates: Sequence[tuple[str, MarkovMeasure | CylinderMeasure]],
    D: int = 12,
    tol: float = 1e-6,
    N: int = 1,
    max_nodes: int = MAX_TREE_NODES,
) -> VpReport:
    """Evaluate candidate measures supported on K against bs_dimension(K).

    Every candidate must give K full mass.  The normalized Frostman flow at
    lambda = max(0, lower end of the dimension's certified bracket) is
    appended automatically, so no cap exceeds 1; each estimate is
    compared against dimension + slack, with slack the candidate's own
    tail-window oscillation, over the last min(3, D) depths.  ``max_nodes``
    bounds every cylinder walk.
    """
    weights.require_positive("dimension weight")
    if K.is_empty:
        raise PreconditionError("target set is empty")
    detail = bs_dimension(lang, weights, K, tol, N, D)
    dim = detail.value
    rows: list[VpCandidate] = []
    pool: list[tuple[str, CylinderMeasure]] = []
    for name, cand in candidates:
        if isinstance(cand, MarkovMeasure):
            cand = cylinder_masses(cand, lang, D, max_nodes)
        if cand.depth != D:
            raise PreconditionError(f"candidate {name!r} has depth {cand.depth}, expected {D}")
        if not cand.supported_on(K):
            raise PreconditionError(f"candidate {name!r} is not supported on the target set")
        pool.append((name, cand))
    lam = max(0.0, detail.certificate.bracket[0])
    fw = frostman_measure(lang, weights, K, lam, N, D, max_nodes)
    pool.append(("frostman", CylinderMeasure(lang, fw.D, fw.normalized())))
    dim_err = detail.certificate.error_bound
    for name, cand in pool:
        est = lower_bs_pressure(cand, weights, min(3, D))
        rows.append(
            VpCandidate(
                name=name,
                value=est.value,
                slack=est.slack,
                gap=dim - est.value,
                within_upper_bound=est.value <= dim + est.slack + dim_err + 1e-12,
            )
        )
    best = max(rows, key=lambda r: r.value)
    return VpReport(
        dimension=dim,
        dimension_detail=detail,
        candidates=tuple(rows),
        best_name=best.name,
        best_value=best.value,
    )
