"""Upper capacity pressure of weighted word languages and its Bowen-equation root.

The separated-set sum over length-n words, log sum_{s in L^n} exp(sum_k w(s_k)),
is finite-horizon data; its (1/(n*tau))-normalized limsup is the pressure.
``_forward_sums``, the package's one forward recursion, runs on the
language's compiled ``unit_graph``: each level is one segment log-sum-exp over
the edges, shifted by the maximum entering each unit, for one weight table.
``level_log_sums`` starts it from the empty word; the induced partial sum
feeds it the words that cross a budget, level by level.
For transition-relation languages the limit equals (1/tau) log of the spectral
radius of the weighted transition matrix, which serves as the oracle; the
radius is the largest over the relation's cyclic strongly connected blocks,
each balanced by a diagonal similarity and then found by a shifted power
iteration with Collatz-Wielandt brackets.  Small blocks square the shifted
matrix up to four times before iterating, so one iterate takes up to 16
power steps between two bracket checks: there numpy's per-call cost, not the
flops, sets the price of a step.  The root solver inverts
beta -> pressure(phi - beta*psi) with ``_find_root``, the package's one
bracketing driver (ITP steps inside a sign-checked bracket).  Its certificate
comes from the slope bound min_i w_psi(i)/tau and includes the
oracle's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GuardError, PreconditionError
from .symbolic import (
    NEG_INF,
    ItineraryLanguage,
    PerSymbolWeights,
    SftLanguage,
    UnitGraph,
    WordLanguage,
    combine_weights,
    _adjacency_lists,
    cyclic_components,
)


#: Shift of a unit with no mass, in place of its maximum -inf.
_FLOOR = -np.finfo(float).max
#: log of the largest float: exp of anything up to it is finite.
_LOG_MAX = math.log(-_FLOOR)


def level_log_sums(lang: WordLanguage, weights: PerSymbolWeights, n_max: int) -> np.ndarray:
    """log sum_{s in L^n} exp(weight(s)) for n = 1..n_max, as a length-n_max array.

    The empty word's mass runs through ``_forward_sums`` on the compiled
    ``lang.unit_graph(n_max)``; aggregating per unit is exact for additive
    weights, so no word is ever enumerated.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    g = lang.unit_graph(n_max)
    table = np.array([weights[s] for s in lang.symbols], dtype=float)
    start = np.full(g.n_units, NEG_INF)
    start[0] = 0.0  # the empty word
    return _forward_sums(g, table[g.sym], [start], n_max)


def _forward_sums(
    g: UnitGraph, step: np.ndarray, inflow: Iterable[np.ndarray], n_max: int
) -> np.ndarray:
    """Level log-sums for n = 1..n_max of per-unit log masses pushed along g's edges.

    ``inflow`` yields per-unit vectors for levels 0, 1, ...: level 0's masses,
    then the masses added to each later level after the push.  It is read
    lazily, one vector per level, and may end early.  Edge e adds step[e].
    A level is one log-sum-exp per unit over its entering edges, shifted by
    that unit's own maximum: no unit underflows against another, however far
    apart their masses drift.  Only the current level's masses are kept.
    A level whose masses leave the float range is refused with GuardError.
    """
    inflow = iter(inflow)
    live = np.array(next(inflow))  # a copy: each level overwrites it
    entered = live[1:]  # the units with an entering edge
    out = np.empty(n_max)
    try:
        with np.errstate(divide="ignore", over="raise", invalid="raise"):  # log(0) = -inf: no mass
            for n in range(n_max):
                vals = live[g.src]
                vals += step
                top = np.maximum.reduceat(vals, g.starts)
                np.maximum(top, _FLOOR, out=top)  # a massless unit: -inf - _FLOOR stays -inf
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
        raise GuardError(f"level sums left the float range at level {n + 1}") from None
    return out


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
    balanced afresh.  A balance that leaves the float range, or whose
    rounding drops every cycle, is refused with GuardError.
    """
    top = float(w.max())
    if top - float(w.min()) <= _EVEN_SPREAD:
        half = np.exp(0.5 * (w - top))
        return top + math.log(_perron_radius(A * half[:, None] * half))
    try:
        with np.errstate(over="raise", invalid="raise"):
            lam, v = _max_plus_balance(A, w)
            B = np.exp(np.where(A > 0.0, w[:, None] - lam + v - v[:, None], NEG_INF))
    except (FloatingPointError, ValueError):  # ValueError: no finite walk, from a weight of -inf
        raise GuardError(f"max-plus balance of {len(A)} symbols left the float range") from None
    parts = cyclic_components(_adjacency_lists(B))
    if not parts:
        raise GuardError(f"max-plus balance of {len(A)} symbols rounds away every cycle")
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
#: Power steps after which an irreducible block is refused.
_MAX_ITER = 200_000
#: Largest block whose iterates are squared: up to q = 64 a squaring costs at most
#: about two power steps, numpy's per-call overhead outweighing its q^3 flops; at
#: q = 128 it costs about nine.
_SQUARE_MAX_Q = 64
#: Squarings at most, so one iterate covers up to 16 power steps.
_MAX_SQUARINGS = 4


def _perron_radius(M: np.ndarray) -> float:
    """Spectral radius of an irreducible nonnegative matrix by power iteration.

    The Collatz-Wielandt quotients lo = min (Mx)_i/x_i and hi = max (Mx)_i/x_i
    bracket the radius; the iteration stops when they agree to relative
    tolerance _RTOL.  The first check, from the all-ones vector, reads M's
    least and largest row sums lo0 and hi0 and fixes the shift s = lo0/4 and
    B = (M + s*I)/(hi0 + s), nonnegative with row sums at most 1, so its
    powers cannot overflow.  The positive shift makes imprimitive blocks
    converge; tying it to lo, which never exceeds the radius, keeps it from
    swamping a small radius the way a fixed identity shift does when a
    block's weights spread widely, and a quarter of lo keeps primitive blocks
    near the unshifted rate.

    B is squared k times into P = B^(2^k), each product divided by its
    maximum, and each iterate x <- P x covers 2^k power steps; the brackets
    are still checked on M itself between iterates, so the stop rule and its
    error are those of the plain iteration.  Each iterate is a polynomial in
    M with nonnegative coefficients applied to the last, so the brackets only
    tighten; and Bx <= r x with r = (hi + s)/(hi0 + s) gives P x <= r^(2^k) x,
    so dividing by r^(2^k) keeps x <= 1.  Each iterate counts as 2^k steps
    towards _MAX_ITER.

    k is the largest integer up to _MAX_SQUARINGS with t^(2^k) > 1e-150,
    where t = s/(hi0 + s) is B's least diagonal entry: no row of P vanishes,
    and one iterate shrinks min(x) by a factor above 1e-150.  A block above
    _SQUARE_MAX_Q symbols takes k = 0, the plain shifted iteration, since a
    q^3-flop squaring there costs more than the q^2-flop steps it saves.
    Once x may span 150 decades, or lo has passed 4*lo0, x is folded into M
    by the similarity diag(x)^-1 M diag(x), which leaves the quotients
    unchanged, so x never underflows; the next check then reads lo0, hi0
    afresh from the folded M and rebuilds s and P.  A tiny first row sum
    makes a tiny shift, and only this rebuild lets it grow: the 2-cycle
    [[0, 1], [1e-100, 0]] takes about 980 power steps, against 3,540 when
    the shift waits for a fold at 150 decades.

    An irreducible block always converges; _MAX_ITER power steps without
    agreement raise GuardError, and so does a block whose quotients leave
    the float range.
    """
    n = len(M)
    x = np.ones(n)
    floor = 1.0  # lower bound on min(x)
    P = None
    steps = 0
    while True:
        y = M @ x
        quot = y / x
        lo, hi = float(quot.min()), float(quot.max())
        if not 0.0 < lo <= hi < math.inf:
            raise GuardError(f"power iteration on a {n}-symbol block left the float range")
        if hi - lo <= _RTOL * hi:
            return 0.5 * (lo + hi)
        if steps >= _MAX_ITER:
            raise GuardError(
                f"power iteration on a {n}-symbol block did not converge in {_MAX_ITER} steps"
            )
        if P is None:  # x is all ones: lo and hi are M's least and largest row sums
            s = 0.25 * lo
            top = hi + s
            t = s / top
            k = 0
            if n <= _SQUARE_MAX_Q:
                while k < _MAX_SQUARINGS and t ** (2 << k) > 1e-150:
                    k += 1
            span = 1 << k
            P = M / top
            P.flat[:: n + 1] += t
            scale = 1.0  # P = B^span / scale
            for _ in range(k):
                P = P @ P
                peak = float(P.max())
                P /= peak
                scale *= scale * peak
        x = P @ x
        x *= scale * (top / (hi + s)) ** span
        steps += span
        floor *= ((lo + s) / (hi + s)) ** span
        if floor < 1e-150:
            floor = float(x.min())
        if floor < 1e-150 or lo > 16.0 * s:  # 16 s = 4 lo0
            M = M * (x / x[:, None])
            x = np.ones(n)
            floor = 1.0
            P = None


def cycle_mean_pressure(lang: ItineraryLanguage, weights: PerSymbolWeights) -> float:
    """Exact pressure of an itinerary language: best per-step rate over cycles.

    Deterministic itineraries are eventually periodic, so the level sums are
    finitely many exponentials and the limit is the largest cycle mean of the
    symbol weights, divided by tau.  Each cycle's sum is an exact ``math.fsum``,
    so neither the order of the cycles nor of their states changes a bit.
    """
    if not isinstance(lang, ItineraryLanguage):
        raise PreconditionError("cycle-mean pressure needs an itinerary language")
    label = lang.label.tolist()
    best = NEG_INF
    for cycle in lang.cycles:
        mean = math.fsum(weights[label[x]] for x in cycle) / len(cycle)
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
    sums = level_log_sums(lang, weights, n_max).tolist()
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
) -> float:
    """Exact pressure of the tilted weights phi - beta*psi (cocycle linearity is exact).

    Needs a presentation with an exact oracle; a finite-horizon estimate
    carries no error bound a root certificate could use.
    """
    w_psi.require_positive("psi weights")
    exact = pressure_oracle(lang, combine_weights(w_phi, w_psi, beta))
    if exact is None:
        raise PreconditionError("pressure difference needs a language with an exact oracle")
    return exact


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


#: Steps after which a root or jump search stops, whatever its stop rule says.
_MAX_STEPS = 200
#: Widenings of a starting bracket without a sign change before a search is refused.
_MAX_WIDENINGS = 80


def _find_root(f, lo: float, hi: float, eps: float, done=None):
    """Bracket of the sign change of a decreasing f, shrunk by ITP.

    Returns (lo, hi, f(lo), f(hi), steps) with f(lo) >= 0 > f(hi); every
    value returned was evaluated.  The starting [lo, hi] is only a guess:
    while an end has the wrong sign, the bracket moves past that end and
    doubles its width, and after _MAX_WIDENINGS moves the search is refused
    with GuardError.  The bracket then shrinks by ITP (Oliveira and
    Takahashi, ACM TOMS 47(1), 2020): each step takes an interpolation
    guess, truncates it towards the midpoint, and projects it into the ball
    around the midpoint that keeps the bracket within bisection's width
    plus one halving.  So at most ceil(log2(w0 / (2*eps))) + 1 steps bring
    the width to 2*eps, whatever the guesses; a bracket that is not finite,
    or 2^1022 times 2*eps wide or more, is refused with GuardError.  The
    search stops there, when
    ``done(x, f(x))`` holds at a new point, at float resolution, or after
    _MAX_STEPS steps.

    The guess is one-sided: the secant through the end that moved last and
    the end it replaced, both on the same side of the root.  The cover
    searches' f has a kink at its root (on the golden mean at D=48 its slope
    is about -1.5 below the root and -53 above), where the chord through both
    ends always lands on the steep side and ITP degrades to bisection; each
    one-sided secant extrapolates one smooth branch into the kink, so the
    ends close in from both sides.  On a smooth root it is the secant method.
    The guess falls back to the chord through both ends before the first
    move, when a value is not finite, or when the secant leaves the bracket.
    """
    f_lo, f_hi = f(lo), f(hi)
    width = hi - lo
    widenings = 0
    while not f_lo >= 0.0 > f_hi:
        widenings += 1
        if widenings > _MAX_WIDENINGS:
            raise GuardError(f"no sign change on [{lo}, {hi}]: f={f_lo}, {f_hi}")
        width *= 2.0
        if f_lo < 0.0:  # the sign change lies below lo
            if f_hi < 0.0:
                hi, f_hi = lo, f_lo
            lo -= width
            f_lo = f(lo)
        else:  # f(hi) >= 0: it lies above hi
            lo, f_lo = hi, f_hi
            hi += width
            f_hi = f(hi)
    steps = 0
    if done is not None and (done(lo, f_lo) or done(hi, f_hi)):
        return lo, hi, f_lo, f_hi, steps
    if not hi - lo < 2.0 * eps * 2.0**1022:  # n_max <= 1023 keeps 2.0 ** (n_max - steps) a float
        raise GuardError(f"bracket [{lo}, {hi}] cannot be shrunk to width {2.0 * eps!r}")
    n_max = max(0, math.ceil(math.log2((hi - lo) / (2.0 * eps)))) + 1
    kappa = 0.2 / (hi - lo)
    # the projection aims a few ulps inside eps, so rounding of the points
    # cannot cost the last halving
    aim = max(0.5 * eps, eps - 8.0 * math.ulp(max(abs(lo), abs(hi))))
    last = None  # (x0, f0, x1, f1): the end that moved last, from x0 to x1
    while hi - lo > 2.0 * eps and steps < min(n_max, _MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        x = mid
        guess = None
        if last is not None:
            x0, f0, x1, f1 = last
            if math.isfinite(f0) and math.isfinite(f1) and f0 != f1:
                guess = x1 - f1 * (x1 - x0) / (f1 - f0)
                if not lo < guess < hi:
                    guess = None
        if guess is None and math.isfinite(f_lo) and math.isfinite(f_hi):
            guess = (f_lo * hi - f_hi * lo) / (f_lo - f_hi)
        if guess is not None:
            gap = mid - guess
            # a bracket 1e154 wide or more squares past the float range: bisect
            push = kappa * (hi - lo) ** 2 if hi - lo < 1e154 else math.inf
            x = guess + math.copysign(push, gap) if push <= abs(gap) else mid
            radius = max(0.0, aim * 2.0 ** (n_max - steps) - 0.5 * (hi - lo))
            if abs(x - mid) > radius:
                x = mid - math.copysign(radius, gap)
            if not lo < x < hi:
                x = mid
        fx = f(x)
        steps += 1
        if fx >= 0.0:
            last = (lo, f_lo, x, fx)
            lo, f_lo = x, fx
        else:
            last = (hi, f_hi, x, fx)
            hi, f_hi = x, fx
        if done is not None and done(x, fx):
            break
    return lo, hi, f_lo, f_hi, steps


def _certified_root(
    f, lo: float, hi: float, tol: float, m: float, M: float, err: float
) -> RootCertificate:
    """Root of a decreasing f with slope in [-M, -m], each f(x) within err of the truth.

    ``_find_root`` checks and shrinks the starting [lo, hi] by ITP at
    tolerance tol*m/(4M).  The reported root is the end of the final
    bracket with the smaller residual, and (|residual| + err)/m bounds its
    error.  The search stops once that bound is at most ``tol``, when the
    bracket is narrow enough that it must hold, or after _MAX_STEPS steps.
    """
    lo, hi, f_lo, f_hi, steps = _find_root(
        f, lo, hi, 0.25 * tol * m / M, lambda x, res: (abs(res) + err) / m <= tol
    )
    x, res = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    return RootCertificate(x, res, (abs(res) + err) / m, (lo, hi), steps)


def bowen_root(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    tol: float = 1e-9,
) -> RootCertificate:
    """Unique root of Phi(beta) = pressure(phi - beta*psi) = 0, certified.

    Phi decreases with slope in [-M, -m], where m and M are the least and
    largest of w_psi(i)/tau.  So the root lies between P/M and P/m, with
    P = Phi(0), and ``_certified_root`` checks and shrinks that rigorous
    bracket.  ``error_bound`` is (|residual| + e)/m, where e bounds the
    oracle's own error: the spectral bracket's half-width for a transition
    relation, and 0 for the exact cycle mean.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    w_psi.require_positive("psi weights")
    m, big = w_psi.rate_min(), w_psi.rate_max()
    # the spectral oracle stops at a Collatz-Wielandt half-width of at most _RTOL
    err = _RTOL / w_psi.tau if isinstance(lang, SftLanguage) else 0.0

    def phi(beta: float) -> float:
        return pressure_difference(lang, w_phi, w_psi, beta)

    p0 = phi(0.0)
    pad = tol + 2.0 * err / m
    lo, hi = min(p0 / m, p0 / big) - pad, max(p0 / m, p0 / big) + pad
    return _certified_root(phi, lo, hi, tol, m, big, err)
