"""Time-budget (induced) pressure sums and the boundedness characterization.

Horizons are measured in psi-weight rather than word count: a word class is
charged to the level n at which its cumulative psi-weight first exceeds
T*tau.  Direct evaluation is exponential in T and deliberately desk-scale;
the production route to the induced pressure is the Bowen root in
``capacity``.  The boundedness scan provides the independent cross-check:
the growth sign of the exceed-level sums flips exactly at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import GuardError, PreconditionError
from .symbolic import (
    MAX_WORDS,
    NEG_INF,
    PerSymbolWeights,
    WordLanguage,
    combine_weights,
    logaddexp,
    logsumexp,
    word_weight,
)
from .capacity import level_log_sums

CONVERGENT = "convergent-with-bound"
DIVERGENT = "divergent-evidence"
INCONCLUSIVE = "inconclusive"

_ROOT = object()  # unit sentinel for the empty prefix
_WKEY_DIGITS = 12  # cumulative psi-weights merge at this rounding


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
    window_levels: tuple[int, ...]
    crossing_words: Mapping[int, tuple[tuple[int, ...], ...]]
    exceed_levels: tuple[int, ...]
    exceed_words: Mapping[int, tuple[tuple[int, ...], ...]]
    enumeration_bound: int


def _check_budget(w_psi: PerSymbolWeights, T: float) -> None:
    w_psi.require_positive("psi weights")
    if T <= 0:
        raise PreconditionError("time budget T must be positive")


def compute_level_sets(
    lang: WordLanguage,
    w_psi: PerSymbolWeights,
    T: float,
    max_words: int = MAX_WORDS,
) -> TimeLevelSets:
    """Enumerate the crossing and exceed sets exhaustively (guarded).

    Words are enumerated to length floor(T*tau/min_i w_psi(i)) + 1, past
    which no branch can still be inside the budget.
    """
    _check_budget(w_psi, T)
    tau = w_psi.tau
    budget = T * tau
    n_hi = int(math.floor(budget / min(w_psi.weights.values())))
    window: list[int] = []
    crossing: dict[int, tuple] = {}
    exceed_levels: list[int] = []
    exceed: dict[int, tuple] = {}
    for n in range(0, n_hi + 2):
        if n >= 1:
            over = tuple(
                s for s in lang.iter_words(n, max_words)
                if word_weight(s, w_psi) > budget
            )
            if over:
                exceed_levels.append(n)
                exceed[n] = over
        if n <= n_hi:
            hits = []
            for s in lang.iter_words(n + 1, max_words):
                head = word_weight(s[:n], w_psi)
                if head <= budget < head + w_psi[s[n]]:
                    hits.append(s)
            if hits:
                window.append(n)
                crossing[n] = tuple(hits)
    return TimeLevelSets(
        T=T,
        tau=tau,
        window_levels=tuple(window),
        crossing_words=crossing,
        exceed_levels=tuple(exceed_levels),
        exceed_words=exceed,
        enumeration_bound=n_hi + 1,
    )


def bookkeeping_index(word: Sequence[int], w_psi: PerSymbolWeights) -> int:
    """The unique positive integer m with (m-1)*r*tau < weight(word) <= m*r*tau,
    where r is the largest per-symbol psi rate.

    Rounds a branch's accumulated psi-weight to a whole number of
    maximal-rate steps; exp(-beta*weight) and exp(-beta*m*r*tau) then agree
    within a factor exp(|beta|*r*tau).
    """
    w_psi.require_positive("psi weights")
    if not word:
        raise PreconditionError("bookkeeping index needs a nonempty word")
    unit = w_psi.rate_max() * w_psi.tau
    total = word_weight(word, w_psi)
    m = math.ceil(total / unit)
    if (m - 1) * unit >= total:  # float boundary: step back to keep the lower bound strict
        m -= 1
    return m


def induced_sum(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    T: float,
    max_cells: int = 500_000,
) -> float:
    """log of the budget-T separated sum, de-duplicated by crossing prefix.

    Word classes are advanced as (continuation unit, cumulative psi-weight)
    cells carrying log-accumulated phi-masses; a cell contributes at the
    level where some admissible extension would push it past the budget.
    Exact, and polynomial in T for fixed alphabets (no enumeration).
    """
    _check_budget(w_psi, T)
    budget = T * w_psi.tau
    cells: dict[tuple[object, float], float] = {(_ROOT, 0.0): 0.0}
    total = NEG_INF
    while cells:
        if len(cells) > max_cells:
            raise GuardError(f"induced-sum DP exceeded {max_cells} cells")
        nxt: dict[tuple[object, float], float] = {}
        for (unit, wsum), mass in cells.items():
            succ = lang.initial_units() if unit is _ROOT else lang.unit_successors(unit)
            crosses = any(wsum + w_psi[sym] > budget for _u, sym in succ)
            if crosses:
                total = logaddexp(total, mass)
            for u2, sym in succ:
                w2 = round(wsum + w_psi[sym], _WKEY_DIGITS)
                if w2 <= budget:
                    key = (u2, w2)
                    v = mass + w_phi[sym]
                    nxt[key] = v if key not in nxt else logaddexp(nxt[key], v)
        cells = nxt
    return total


def induced_sum_spanning(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    T: float,
    max_words: int = MAX_WORDS,
) -> float:
    """Same value through minimal spanning sets: greedy one representative per
    crossing cylinder, read off the exhaustive level sets."""
    sets = compute_level_sets(lang, w_psi, T, max_words)
    vals = []
    for n in sets.window_levels:
        reps = sorted({s[:n] for s in sets.crossing_words[n]})
        vals.extend(word_weight(p, w_phi) for p in reps)
    return logsumexp(vals)


@dataclass(frozen=True)
class CharacterizationResult:
    """Partial exceed-level sum at one (beta, T) with a tail growth verdict."""

    beta: float
    T: float
    verdict: str
    growth_rate: float
    partial_log_sum: float | None
    tail_log_bound: float | None
    n_cap: int
    window: int


def _scan_horizon(w_psi: PerSymbolWeights, T: float, n_cap: int | None, window: int):
    """(n_full, n_cap): the first level past the budget, and the checked level cap."""
    _check_budget(w_psi, T)
    n_full = int(math.floor(T * w_psi.tau / min(w_psi.weights.values()))) + 1
    if n_cap is None:
        n_cap = n_full + window + 8
    if n_cap < n_full + window + 2:
        raise PreconditionError(
            f"n_cap={n_cap} leaves no all-words tail window (need >= {n_full + window + 2})"
        )
    return n_full, n_cap


def _verdict(
    full: Sequence[float], beta: float, T: float, n_cap: int, window: int, margin: float
) -> CharacterizationResult:
    """Tail growth verdict from the all-words level sums full[n-1], n = 1..n_cap."""
    growth = (full[n_cap - 1] - full[n_cap - 1 - window]) / window
    tail_bound = None
    if growth <= -margin:
        verdict = CONVERGENT
        r = math.exp(growth)
        tail_bound = full[n_cap - 1] + math.log(r / (1.0 - r))
    elif growth >= margin:
        verdict = DIVERGENT
    else:
        verdict = INCONCLUSIVE
    return CharacterizationResult(
        beta=beta,
        T=T,
        verdict=verdict,
        growth_rate=growth,
        partial_log_sum=None,
        tail_log_bound=tail_bound,
        n_cap=n_cap,
        window=window,
    )


def characterization_sum(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    beta: float,
    T: float,
    n_cap: int | None = None,
    window: int = 12,
    margin: float = 1e-3,
    include_partial: bool = True,
    max_cells: int = 500_000,
) -> CharacterizationResult:
    """Partial sum over exceed levels of the tilted weights phi - beta*psi.

    Levels past floor(T*tau/min w_psi) contain every word, so their sums come
    from the exact forward recursion; earlier levels are restricted by the
    budget and use the cell DP (only when a partial value is requested, since
    the verdict depends on the tail alone).  The verdict compares the mean
    log-growth over the last ``window`` levels against ``margin``; the window
    length is divisible by every relation period up to 4, which washes out
    imprimitive oscillation.
    """
    n_full, n_cap = _scan_horizon(w_psi, T, n_cap, window)
    tilt = combine_weights(w_phi, w_psi, beta)
    full = level_log_sums(lang, [tilt], n_cap)[0].tolist()
    result = _verdict(full, beta, T, n_cap, window, margin)
    if not include_partial:
        return result
    head = _restricted_head_sums(lang, tilt, w_psi, T * w_psi.tau, n_full, max_cells)
    return replace(result, partial_log_sum=logsumexp(head + full[n_full - 1 : n_cap]))


def _restricted_head_sums(
    lang: WordLanguage,
    tilt: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    budget: float,
    n_full: int,
    max_cells: int,
) -> list[float]:
    """Exceed-level sums for n < n_full, where the budget still bites.

    Below-budget classes are tracked per (unit, psi-weight) cell; mass that
    crosses the budget is folded into per-unit exceeded cells and extended
    freely from there.
    """
    below: dict[tuple[object, float], float] = {(_ROOT, 0.0): 0.0}
    above: dict[object, float] = {}
    out = []
    for _n in range(1, n_full):
        if len(below) > max_cells:
            raise GuardError(f"characterization DP exceeded {max_cells} cells")
        nxt_below: dict[tuple[object, float], float] = {}
        nxt_above: dict[object, float] = {}
        for (unit, wsum), mass in below.items():
            succ = lang.initial_units() if unit is _ROOT else lang.unit_successors(unit)
            for u2, sym in succ:
                v = mass + tilt[sym]
                if wsum + w_psi[sym] > budget:
                    nxt_above[u2] = v if u2 not in nxt_above else logaddexp(nxt_above[u2], v)
                else:
                    key = (u2, round(wsum + w_psi[sym], _WKEY_DIGITS))
                    nxt_below[key] = v if key not in nxt_below else logaddexp(nxt_below[key], v)
        for unit, mass in above.items():
            for u2, sym in lang.unit_successors(unit):
                v = mass + tilt[sym]
                nxt_above[u2] = v if u2 not in nxt_above else logaddexp(nxt_above[u2], v)
        below, above = nxt_below, nxt_above
        out.append(logsumexp(above.values()))
    return out


def characterization_scan(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    betas: Sequence[float],
    T: float,
    n_cap: int | None = None,
    window: int = 12,
    margin: float = 1e-3,
) -> list[CharacterizationResult]:
    """Boundedness verdict per grid point; the flip brackets the Bowen root.

    The level sums of the whole grid come from one batched recursion, and
    each point's verdict reads its own row, so a point's result equals
    ``characterization_sum`` at that point without the partial sum.
    """
    _n_full, n_cap = _scan_horizon(w_psi, T, n_cap, window)
    tilts = [combine_weights(w_phi, w_psi, beta) for beta in betas]
    rows = level_log_sums(lang, tilts, n_cap).tolist()
    return [_verdict(full, beta, T, n_cap, window, margin) for beta, full in zip(betas, rows)]


def verdict_flip(results: Sequence[CharacterizationResult]) -> tuple[float, float] | None:
    """Bracket (last divergent beta, first convergent beta), if the scan flips."""
    divergent = [r.beta for r in results if r.verdict == DIVERGENT]
    convergent = [r.beta for r in results if r.verdict == CONVERGENT]
    if not divergent or not convergent:
        return None
    return max(divergent), min(convergent)
