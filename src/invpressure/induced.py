"""Time-budget (induced) pressure sums and the boundedness characterization.

Horizons are measured in psi-weight rather than word count: a word class is
charged to the level n at which its cumulative psi-weight first exceeds
T*tau.  Each psi weight and T*tau are rounded once to 12 decimals, onto one
integer lattice, so every budget decision is exact integer arithmetic and a
psi-sum landing on T*tau is inside the budget.  Both finite-budget sums read
one cell walk, polynomial in T for a fixed alphabet, which decides each edge
once.  The induced pressure is the Bowen root in ``capacity``.  The
boundedness characterization reads its verdicts off that root's certificate,
since the exceed-level series converges exactly when the tilted pressure is
negative; the exact partial exceed-level sum is the independent data, run on
``capacity``'s forward recursion with the walk's crossing words flowing in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import GuardError, PreconditionError
from .symbolic import (
    MAX_DEPTH,
    MAX_WORDS,
    NEG_INF,
    PerSymbolWeights,
    WordLanguage,
    combine_weights,
    logaddexp,
    logsumexp,
)
from .capacity import _forward_sums, bowen_root

CONVERGENT = "convergent-with-bound"
DIVERGENT = "divergent-evidence"
INCONCLUSIVE = "inconclusive"

_SCALE = 10**12  # psi weights and T*tau are counted in whole steps of 1e-12


def _lattice(x: float) -> int:
    """x in whole steps of 1e-12, rounded half to even; exact for every finite float."""
    return round(Fraction(x) * _SCALE)


def _budget_levels(w_psi: PerSymbolWeights, T: float) -> tuple[int, int, PerSymbolWeights]:
    """(n_hi, budget, psi): T*tau and the psi weights on the lattice (a weight above
    the budget, inf included, crosses on its own edge), and n_hi = budget // min psi,
    the longest word inside the budget.  Every horizon derived from T starts at n_hi,
    so one above MAX_DEPTH is refused before any build, in floats before any conversion."""
    w_psi.require_positive("psi weights")
    if T <= 0:
        raise PreconditionError("time budget T must be positive")
    span = T * w_psi.tau / min(w_psi.weights.values())
    if not span < MAX_DEPTH + 1:  # also refuses an overflow to inf
        raise GuardError(f"T={T!r} spans {span:.6g} levels, above the depth limit {MAX_DEPTH}")
    budget = _lattice(T * w_psi.tau)
    psi = {s: budget + 1 if w == math.inf else _lattice(w) for s, w in w_psi.weights.items()}
    least = min(psi.values())
    if budget >= (MAX_DEPTH + 1) * least:  # a weight under 1e-9 can round far down, or to 0
        raise GuardError(f"T={T!r} spans more than {MAX_DEPTH} levels at 12 decimals")
    return budget // least, budget, replace(w_psi, weights=psi)


def _budget_walk(
    lang: WordLanguage,
    w_step: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    T: float,
    max_cells: int,
):
    """The budget-T cell DP over (unit, psi-sum) cells of ``lang.unit_graph``,
    unit 0 being the empty word, carrying log-accumulated ``w_step`` masses.

    Psi-sums are integers on the 1e-12 lattice: an edge whose psi-sum is at
    most the budget keeps its child cell, any other edge crosses.  Yields per
    level n = 0, 1, ... while cells remain the crossing cells of length-n
    words as (log mass, [(symbol index, child unit), ...]), in cell order.
    """
    n_hi, budget, lattice = _budget_levels(w_psi, T)
    kids = lang.unit_graph(n_hi + 1).children
    step = [w_step[s] for s in lang.symbols]
    psi = [lattice[s] for s in lang.symbols]
    cells: dict[tuple[int, int], float] = {(0, 0): 0.0}
    while cells:
        if len(cells) > max_cells:
            raise GuardError(f"budget cell DP exceeded {max_cells} cells")
        nxt: dict[tuple[int, int], float] = {}
        crossing: list[tuple[float, list]] = []
        for (unit, wsum), mass in cells.items():
            edges = None
            for edge in kids[unit]:
                k, child = edge
                w2 = wsum + psi[k]
                if w2 > budget:
                    if edges is None:
                        edges = []
                        crossing.append((mass, edges))
                    edges.append(edge)
                else:
                    key = (child, w2)
                    v = mass + step[k]
                    nxt[key] = v if key not in nxt else logaddexp(nxt[key], v)
        yield crossing
        cells = nxt


def induced_sum(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    T: float,
    max_cells: int = MAX_WORDS,
) -> float:
    """log of the budget-T separated sum, de-duplicated by crossing prefix:
    the phi-masses of the budget walk's crossing cells.  Exact (no enumeration)."""
    total = NEG_INF
    for crossing in _budget_walk(lang, w_phi, w_psi, T, max_cells):
        for mass, _edges in crossing:
            total = logaddexp(total, mass)
    return total


@dataclass(frozen=True)
class CharacterizationResult:
    """Boundedness verdict at one (beta, T); the partial sum up to n_cap, if computed."""

    beta: float
    T: float
    verdict: str
    partial_log_sum: float | None
    n_cap: int | None


def characterization_scan(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    betas: Sequence[float],
    T: float,
) -> list[CharacterizationResult]:
    """Boundedness verdict per grid point; the flip brackets the Bowen root.

    The exceed-level series of phi - beta*psi converges exactly when
    pressure(phi - beta*psi) < 0, i.e. above the Bowen root, so each verdict
    reads one ``bowen_root`` certificate beta_hat +- e: divergent below
    beta_hat - e, convergent above beta_hat + e, else inconclusive.  It does
    not depend on T, only checked against the depth limit; no grid, no root.
    """
    _budget_levels(w_psi, T)
    if not betas:
        return []
    cert = bowen_root(lang, w_phi, w_psi)
    lo, hi = cert.beta_hat - cert.error_bound, cert.beta_hat + cert.error_bound
    verdicts = [DIVERGENT if b < lo else CONVERGENT if b > hi else INCONCLUSIVE for b in betas]
    return [CharacterizationResult(b, T, v, None, None) for b, v in zip(betas, verdicts)]


def characterization_sum(
    lang: WordLanguage,
    w_phi: PerSymbolWeights,
    w_psi: PerSymbolWeights,
    beta: float,
    T: float,
    n_cap: int | None = None,
    max_cells: int = MAX_WORDS,
) -> CharacterizationResult:
    """Partial sum over exceed levels 1..n_cap of the tilted weights phi - beta*psi.

    A word exceeds the budget from the level its budget-walk cell crosses on,
    and from there extends freely, so ``_forward_sums`` gives the exceed-level
    sums exactly when the walk's crossing edges flow in as each level's new
    masses; once the walk runs out of cells every word exceeds.  n_cap, at
    least the first such level n_full, defaults to n_full + 20.  The verdict
    is ``characterization_scan``'s; the exact partial sum is independent of it.
    """
    n_full = _budget_levels(w_psi, T)[0] + 1
    if n_cap is None:
        n_cap = n_full + 20
    if n_cap < n_full:
        raise PreconditionError(f"n_cap={n_cap} ends before every word exceeds (need >= {n_full})")
    g = lang.unit_graph(n_cap)  # before the walk, so the walk's child units index g's vectors
    tilt = combine_weights(w_phi, w_psi, beta)
    step = [tilt[s] for s in lang.symbols]

    def inflow():
        yield np.full(g.n_units, NEG_INF)  # level 0: the empty word exceeds no budget
        for crossing in _budget_walk(lang, tilt, w_psi, T, max_cells):
            add = np.full(g.n_units, NEG_INF)
            units = [c for _, edges in crossing for _, c in edges]
            masses = [mass + step[k] for mass, edges in crossing for k, _ in edges]
            np.logaddexp.at(add, units, masses)
            yield add

    sums = _forward_sums(g, np.array(step)[g.sym], inflow(), n_cap)
    [result] = characterization_scan(lang, w_phi, w_psi, [beta], T)
    return replace(result, partial_log_sum=logsumexp(sums.tolist()), n_cap=n_cap)


def verdict_flip(results: Sequence[CharacterizationResult]) -> tuple[float, float] | None:
    """Bracket (last divergent beta, first convergent beta), if the scan flips."""
    divergent = [r.beta for r in results if r.verdict == DIVERGENT]
    convergent = [r.beta for r in results if r.verdict == CONVERGENT]
    if not divergent or not convergent:
        return None
    return max(divergent), min(convergent)
