"""Upper capacity pressure of weighted word languages and its Bowen-equation root.

The separated-set sum over length-n words, log sum_{s in L^n} exp(sum_k w(s_k)),
is finite-horizon data; its (1/(n*tau))-normalized limsup is the pressure.
``level_log_sums`` runs the forward recursion on the language's compiled
``unit_graph``: each level is one segment log-sum-exp over the edges, shifted
by the maximum entering each unit, for a whole batch of weight tables at once.
For transition-relation languages the limit equals (1/tau) log of the spectral
radius of the weighted transition matrix, which serves as the oracle; the
radius is the largest over the relation's cyclic strongly connected blocks,
each balanced by a diagonal similarity and then found by power iteration with
Collatz-Wielandt brackets.  The root solver
inverts beta -> pressure(phi - beta*psi) by bisection, with an a-priori error
certificate from the slope bound min_i w_psi(i)/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GuardError, PreconditionError
from .symbolic import (
    MAX_TREE_NODES,
    MAX_WORDS,
    NEG_INF,
    ItineraryLanguage,
    PerSymbolWeights,
    SftLanguage,
    UnitGraph,
    WordLanguage,
    build_cylinder_tree,
    combine_weights,
    cyclic_components,
    logsumexp,
    word_weight,
)


#: Floats in one edge-by-table block of the level-sum recursion (8 MB).
_BATCH_FLOATS = 1 << 20
#: Shift of a unit with no mass, in place of its maximum -inf.
_FLOOR = -np.finfo(float).max


def level_log_sums(
    lang: WordLanguage, weights_seq: Sequence[PerSymbolWeights], n_max: int
) -> np.ndarray:
    """log sum_{s in L^n} exp(weight_k(s)) for every table k and n = 1..n_max.

    Returns a (len(weights_seq), n_max) array.  Masses are aggregated per
    unit of the compiled ``lang.unit_graph(n_max)``, which is exact for
    additive weights, so no word is ever enumerated.  A level is one
    log-sum-exp per unit over its entering edges, shifted by that unit's own
    maximum: no unit underflows against another, however far apart their
    masses drift.  The level's total is a logaddexp reduction of the live
    masses; only the current level's masses are kept.  Tables run in blocks
    of at most _BATCH_FLOATS edge values; each row of the result depends on
    its own table alone, so the blocking does not change it.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    g = lang.unit_graph(n_max)
    table = np.array([[w[s] for s in lang.symbols] for w in weights_seq], dtype=float)
    table = table.reshape(len(weights_seq), len(lang.symbols))
    out = np.empty((len(table), n_max))
    rows = max(1, _BATCH_FLOATS // len(g.src))
    for k in range(0, len(table), rows):
        out[k : k + rows] = _forward_sums(g, table[k : k + rows, g.sym], n_max)
    return out


def _forward_sums(g: UnitGraph, step: np.ndarray, n_max: int) -> np.ndarray:
    """Level log-sums for the edge weights step[k, e] of each table k."""
    live = np.full((len(step), g.n_units), NEG_INF)
    live[:, 0] = 0.0
    out = np.empty((len(step), n_max))
    with np.errstate(divide="ignore"):  # log(0) = -inf marks units with no mass
        for n in range(n_max):
            vals = np.take(live, g.src, axis=1)
            vals += step
            top = np.maximum.reduceat(vals, g.starts, axis=1)
            np.maximum(top, _FLOOR, out=top)  # a massless unit: -inf - _FLOOR stays -inf
            vals -= np.take(top, g.seg, axis=1)
            np.exp(vals, out=vals)
            if n == 0:
                live[:, 0] = NEG_INF  # the empty word only starts words
            live[:, 1:] = np.log(np.add.reduceat(vals, g.starts, axis=1)) + top
            out[:, n] = np.logaddexp.reduce(live, axis=1)
    return out


def separated_sum(
    lang: WordLanguage, weights: PerSymbolWeights, n: int, max_words: int = MAX_WORDS
) -> float:
    """log of the maximal separated-set sum at horizon n.

    Maximal separated sets pick exactly one point per nonempty cylinder, so
    this is the plain sum over admissible length-n words, enumerated
    explicitly (the brute-force route; see ``level_log_sums`` for the fast one).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    vals = [word_weight(s, weights) for s in lang.iter_words(n, max_words)]
    return logsumexp(vals)


def spanning_sum(
    lang: WordLanguage, weights: PerSymbolWeights, n: int, max_nodes: int = MAX_TREE_NODES
) -> float:
    """log of the minimal spanning-set sum at horizon n.

    Minimal spanning sets also take one representative per cylinder; computed
    independently of ``separated_sum`` by a greedy cover of level-n cylinder
    tree nodes (one representative each, weights read off the tree).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    tree = build_cylinder_tree(lang, [weights], n, max_nodes)
    covered: set[tuple[int, ...]] = set()
    vals = []
    for node in tree.level(n):
        if node.word not in covered:
            covered.add(node.word)
            vals.append(node.cum[0])
    return logsumexp(vals)


@dataclass(frozen=True)
class PressureEstimate:
    """Finite-horizon pressure sequence with tail-window limsup/liminf estimates."""

    values: tuple[tuple[int, float], ...]
    limsup_estimate: float
    liminf_estimate: float
    oracle: float | None
    tail_window: int

    def __post_init__(self):
        if self.liminf_estimate > self.limsup_estimate:
            raise PreconditionError("liminf estimate exceeds limsup estimate")


def spectral_pressure(lang: SftLanguage, weights: PerSymbolWeights) -> float:
    """(1/tau) log of the spectral radius of M[i,j] = [i->j] * exp(w(i)).

    M is the language's cached 0/1 adjacency with rows scaled by exp(w).  Its
    radius is the largest radius among the cyclic strongly connected blocks
    of the relation (Frobenius normal form), so reducible relations get the
    exact block radius and no dense eigenvalue solve is needed; each block
    goes to ``_log_radius``.
    """
    if not isinstance(lang, SftLanguage):
        raise PreconditionError("spectral pressure needs a transition-relation language")
    w = np.array([weights[s] for s in lang.symbols], dtype=float)
    best = max((_log_radius(A, w[block]) for block, A in lang.cyclic_blocks), default=NEG_INF)
    return best / weights.tau


#: Weight spread of a block up to which the plain balancing keeps entries above e^-230.
_EVEN_SPREAD = 230.0


def _log_radius(A: np.ndarray, w: np.ndarray) -> float:
    """log of the spectral radius of diag(exp(w)) A, for an irreducible 0/1 block A.

    The block is balanced by a diagonal similarity before ``_perron_radius``
    iterates on it.  When w spreads by at most _EVEN_SPREAD, the balance is
    D^(1/2) A D^(1/2) with D = diag(exp(w - max w)), with entries in
    [e^-230, 1].  Wider spreads take the max-plus balance of
    ``_max_plus_balance``: every entry at most 1, the largest of each row 1,
    so the radius lies in [1, len(A)].  Entries that underflow there are
    below 1e-308 of the radius and are dropped; if that splits the block,
    the radius is the largest among the cyclic components left, each
    balanced afresh.
    """
    top = float(w.max())
    if top - float(w.min()) <= _EVEN_SPREAD:
        half = np.exp(0.5 * (w - top))
        return top + math.log(_perron_radius(A * half[:, None] * half))
    lam, v = _max_plus_balance(A, w)
    B = np.exp(np.where(A > 0.0, w[:, None] - lam + v - v[:, None], NEG_INF))
    parts = cyclic_components([np.flatnonzero(row) for row in B])
    if len(parts[0]) == len(A):
        return lam + math.log(_perron_radius(B))
    return max(_log_radius(A[np.ix_(p, p)], w[p]) for p in parts)


def _max_plus_balance(A: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Max cycle mean lam of the edge weights w(i) on i -> j, and a potential v.

    lam comes from Karp's formula (Discrete Math. 23, 1978) over the best
    k-edge walks into vertex 0, k <= len(A).  v(i) is the best path weight
    from i to a critical vertex under the weights w - lam (Floyd-Warshall),
    so w(i) - lam + v(j) - v(i) <= 0 on every edge, with equality on the
    best edge out of each vertex.
    """
    n = len(A)
    C = np.where(A > 0.0, w[:, None], NEG_INF)
    walks = np.full((n + 1, n), NEG_INF)  # walks[k, i]: best k-edge walk from i to 0
    walks[0, 0] = 0.0
    for k in range(1, n + 1):
        walks[k] = (C + walks[k - 1]).max(axis=1)
    ends = walks[n] > NEG_INF
    gaps = (walks[n, ends] - walks[:n, ends]) / (n - np.arange(n))[:, None]
    lam = float(gaps.min(axis=0).max())
    best = C - lam  # best[i, j]: best path weight from i to j, after the loop
    for k in range(n):
        best = np.maximum(best, best[:, k, None] + best[k])
    crit = int(np.argmax(np.diag(best)))
    v = best[:, crit].copy()
    v[crit] = 0.0
    return lam, v


#: Relative agreement of the Collatz-Wielandt brackets at which iteration stops.
_RTOL = 1e-12
#: Power-iteration steps after which an irreducible block is refused.
_MAX_ITER = 200_000


def _perron_radius(M: np.ndarray) -> float:
    """Spectral radius of an irreducible nonnegative matrix by power iteration.

    The Collatz-Wielandt quotients lo = min (Mx)_i/x_i and hi = max (Mx)_i/x_i
    bracket the radius; the iteration stops when they agree to relative
    tolerance _RTOL.  It runs on M + s*I with s = lo/4, from the all-ones
    vector.  The positive shift makes imprimitive blocks converge; tying it
    to lo, which never exceeds the radius, keeps it from swamping a small
    radius the way a fixed identity shift does when a block's weights spread
    widely, and a quarter of lo keeps primitive blocks near the unshifted
    rate.  Each iterate is a polynomial in M with nonnegative coefficients
    applied to the last, so the brackets only tighten.  Dividing by hi + s
    keeps x <= 1; once x may span 150 decades it is folded into M by the
    similarity diag(x)^-1 M diag(x), which leaves the quotients unchanged,
    so x never underflows.

    An irreducible block always converges; reaching _MAX_ITER raises
    GuardError, and so does a block whose quotients leave the float range.
    """
    x = np.ones(len(M))
    floor = 1.0  # lower bound on min(x)
    for _ in range(_MAX_ITER):
        y = M @ x
        quot = y / x
        lo, hi = float(quot.min()), float(quot.max())
        if not 0.0 < lo <= hi < math.inf:
            raise GuardError(f"power iteration on a {len(M)}-symbol block left the float range")
        if hi - lo <= _RTOL * hi:
            return 0.5 * (lo + hi)
        s = 0.25 * lo
        x *= s
        x += y
        x /= hi + s
        floor *= s / (hi + s)
        if floor < 1e-150:
            floor = float(x.min())
            if floor < 1e-150:
                M = M * (x / x[:, None])
                x = np.ones(len(M))
                floor = 1.0
    raise GuardError(
        f"power iteration on a {len(M)}-symbol block did not converge in {_MAX_ITER} steps"
    )


def cycle_mean_pressure(lang: ItineraryLanguage, weights: PerSymbolWeights) -> float:
    """Exact pressure of an itinerary language: best per-step rate over cycles.

    Deterministic itineraries are eventually periodic, so the level sums are
    finitely many exponentials and the limit is the largest cycle mean of the
    symbol weights, divided by tau.
    """
    best = NEG_INF
    for cycle in lang.cycles():
        mean = math.fsum(weights[lang.label[x]] for x in cycle) / len(cycle)
        best = max(best, mean / weights.tau)
    return best


def pressure_oracle(lang: WordLanguage, weights: PerSymbolWeights) -> float | None:
    """Exact limiting pressure when the presentation admits one."""
    if isinstance(lang, SftLanguage):
        return spectral_pressure(lang, weights)
    if isinstance(lang, ItineraryLanguage):
        return cycle_mean_pressure(lang, weights)
    return None


def capacity_pressure(
    lang: WordLanguage,
    weights: PerSymbolWeights,
    n_max: int,
    tail_window: int = 10,
) -> PressureEstimate:
    """Finite-horizon capacity pressure with tail-window limsup/liminf.

    The limsup is estimated, never extrapolated: the reported value is the
    max of the final ``tail_window`` entries of (1/(n*tau)) log m(n), and the
    exact spectral (or cycle-mean) limit is attached as the oracle when the
    presentation provides one.
    """
    if not 1 <= tail_window <= n_max:
        raise PreconditionError("need n_max >= tail_window >= 1")
    tau = weights.tau
    sums = level_log_sums(lang, [weights], n_max)[0].tolist()
    values = tuple((n, sums[n - 1] / (n * tau)) for n in range(1, n_max + 1))
    tail = [v for _, v in values[-tail_window:]]
    return PressureEstimate(
        values=values,
        limsup_estimate=max(tail),
        liminf_estimate=min(tail),
        oracle=pressure_oracle(lang, weights),
        tail_window=tail_window,
    )


def pressure_difference(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    beta: float,
    n_max: int = 120,
    tail_window: int = 10,
) -> float:
    """Pressure of the tilted weights phi - beta*psi (cocycle linearity is exact).

    Uses the exact oracle when the language admits one, otherwise the
    finite-horizon limsup estimate at n_max.
    """
    w_psi.require_positive("psi weights")
    tilted = combine_weights(w_phi, w_psi, beta)
    exact = pressure_oracle(lang, tilted)
    if exact is not None:
        return exact
    return capacity_pressure(lang, tilted, n_max, tail_window).limsup_estimate


@dataclass(frozen=True)
class RootCertificate:
    """Approximate Bowen root with residual and a slope-based error bound."""

    beta_hat: float
    residual: float
    error_bound: float
    bracket: tuple[float, float]
    iterations: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.beta_hat <= hi:
            raise PreconditionError("root estimate outside its bracket")


def bowen_root(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    tol: float = 1e-9,
    n_max: int = 120,
) -> RootCertificate:
    """Unique root of pressure(phi - beta*psi) = 0 by certified bisection.

    The map is strictly decreasing with slope at most -m where
    m = min_i w_psi(i)/tau, so the initial bracket
    [min(0, P/m), max(0, P/m)] with P = pressure(phi) is rigorous and
    |Phi(beta_hat)|/m bounds the distance to the true root.  Stops when that
    bound drops below ``tol`` (200-iteration hard cap).
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    w_psi.require_positive("psi weights")
    m = w_psi.rate_min()

    def phi(beta: float) -> float:
        return pressure_difference(lang, w_phi, w_psi, beta, n_max)

    p0 = phi(0.0)
    lo = min(0.0, p0 / m)
    hi = max(0.0, p0 / m)
    pad = max(tol, 1e-3 * max(1.0, abs(p0) / m))
    lo -= pad
    hi += pad
    f_lo, f_hi = phi(lo), phi(hi)
    expansions = 0
    while f_lo < 0.0 or f_hi > 0.0:
        expansions += 1
        if expansions > 60:
            raise GuardError(
                f"no sign change on [{lo}, {hi}]: Phi({lo})={f_lo}, Phi({hi})={f_hi}"
            )
        width = hi - lo
        if f_lo < 0.0:
            lo -= width
            f_lo = phi(lo)
        if f_hi > 0.0:
            hi += width
            f_hi = phi(hi)

    beta = 0.5 * (lo + hi)
    res = phi(beta)
    iters = 0
    while abs(res) / m > tol and iters < 200:
        iters += 1
        if res > 0.0:
            lo = beta
        else:
            hi = beta
        beta = 0.5 * (lo + hi)
        res = phi(beta)
    return RootCertificate(beta, res, abs(res) / m, (lo, hi), iters)
