"""Cylinder measures and the desk-scale variational-principle harness.

Candidate measures are explicit: Markov chains supported on the transition
relation (including Bernoulli products and the max-entropy chain built from
Perron eigenvectors), plus whatever the Frostman flow produces.  Their
measure-theoretic lower pressure is approximated per branch by the decay
ratio -log(mass)/weight, with the liminf proxied by the minimum over a
trailing depth window; the window oscillation is reported as the slack of
every finite-depth comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import GuardError, PreconditionError
from .symbolic import MAX_TREE_NODES, PerSymbolWeights, SftLanguage, WordLanguage
from .covers import BsDimension, SubsetSpec, bs_dimension, frostman_measure, FrostmanWeights


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
        if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
            raise PreconditionError("rows must sum to 1")
        if not np.allclose(pi @ P, pi, atol=1e-9):
            raise PreconditionError("stationary vector is not invariant")
        if not math.isclose(float(pi.sum()), 1.0, abs_tol=1e-9):
            raise PreconditionError("stationary vector must sum to 1")

    def index(self, symbol: int) -> int:
        return self.symbols.index(symbol)

    def check_support(self, lang: SftLanguage) -> None:
        for a, i in enumerate(self.symbols):
            for b, j in enumerate(self.symbols):
                if self.matrix[a][b] > 0.0 and not lang.allows(i, j):
                    raise PreconditionError(
                        f"measure puts mass on forbidden transition {i}->{j}"
                    )


def bernoulli_measure(lang: WordLanguage, probs: Sequence[float]) -> MarkovMeasure:
    """Product measure with the given symbol probabilities."""
    syms = lang.symbols
    if len(probs) != len(syms):
        raise PreconditionError("one probability per symbol required")
    p = np.asarray([float(x) for x in probs])
    if not math.isclose(float(p.sum()), 1.0, abs_tol=1e-9):
        raise PreconditionError("probabilities must sum to 1")
    P = tuple(tuple(float(x) for x in p) for _ in syms)
    mu = MarkovMeasure(syms, P, tuple(float(x) for x in p))
    if isinstance(lang, SftLanguage):
        mu.check_support(lang)
    return mu


def markov_measure(
    lang: WordLanguage,
    matrix: Sequence[Sequence[float]],
    stationary: Sequence[float] | None = None,
) -> MarkovMeasure:
    """Markov chain from an explicit stochastic matrix (stationary vector solved if omitted)."""
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
    if isinstance(lang, SftLanguage):
        mu.check_support(lang)
    return mu


def parry_measure(lang: SftLanguage) -> MarkovMeasure:
    """Max-entropy Markov chain of the relation, from its Perron eigendata."""
    if not isinstance(lang, SftLanguage):
        raise PreconditionError("the max-entropy chain needs a transition relation")
    syms = lang.symbols
    q = len(syms)
    A = lang.adjacency
    eigvals, eigvecs = np.linalg.eig(A)
    k = int(np.argmax(np.real(eigvals)))
    rho = float(np.real(eigvals[k]))
    v = np.abs(np.real(eigvecs[:, k]))
    eigvals_l, eigvecs_l = np.linalg.eig(A.T)
    kl = int(np.argmax(np.real(eigvals_l)))
    u = np.abs(np.real(eigvecs_l[:, kl]))
    P = np.zeros((q, q))
    for a in range(q):
        for b in range(q):
            if A[a, b]:
                P[a, b] = A[a, b] * v[b] / (rho * v[a])
    pi = u * v
    pi = pi / pi.sum()
    return MarkovMeasure(syms, tuple(tuple(row) for row in P.tolist()), tuple(pi.tolist()))


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
        self._prefix: dict[tuple[int, ...], float] | None = None

    def _prefix_table(self) -> dict[tuple[int, ...], float]:
        if self._prefix is None:
            table: dict[tuple[int, ...], float] = {}
            for word, m in self.masses.items():
                for n in range(1, len(word) + 1):
                    key = word[:n]
                    table[key] = table.get(key, 0.0) + m
            self._prefix = table
        return self._prefix

    def mass(self, word: Sequence[int]) -> float:
        word = tuple(word)
        if len(word) == 0:
            return 1.0
        if len(word) == self.depth:
            return self.masses.get(word, 0.0)
        if len(word) > self.depth:
            raise PreconditionError("word deeper than the measure's resolution")
        return self._prefix_table().get(word, 0.0)

    def supported_on(self, Z: SubsetSpec) -> bool:
        if Z.is_whole_space:
            return True
        words = Z.words or ()
        for leaf, m in self.masses.items():
            if m > 0.0 and not any(leaf[: len(z)] == z for z in words):
                return False
        return True

    def restricted_to(self, Z: SubsetSpec) -> "CylinderMeasure":
        """Conditional measure on Z (renormalized over the leaves under Z)."""
        if Z.is_whole_space:
            return self
        words = Z.words or ()
        kept = {
            leaf: m
            for leaf, m in self.masses.items()
            if any(leaf[: len(z)] == z for z in words)
        }
        total = math.fsum(kept.values())
        if total <= 0.0:
            raise PreconditionError("measure gives the target set zero mass")
        return CylinderMeasure(self.lang, self.depth, {w: m / total for w, m in kept.items()})


def cylinder_masses(
    mu: MarkovMeasure, lang: WordLanguage, depth: int, max_nodes: int = MAX_TREE_NODES
) -> CylinderMeasure:
    """Evaluate a Markov chain on all depth-D cylinders: pi_{s0} * prod P.

    The cylinders are walked on the children of ``lang.unit_graph(depth)``;
    ``max_nodes`` bounds the number of cylinders visited.
    """
    if isinstance(lang, SftLanguage):
        mu.check_support(lang)
    kids = lang.unit_graph(depth).children
    symbols = lang.symbols
    pos = [mu.index(s) for s in symbols]
    masses: dict[tuple[int, ...], float] = {}
    stack = [((), 0, -1, 1.0)]  # (word, unit, chain state of its last symbol, mass)
    visited = 0
    while stack:
        word, unit, last, m = stack.pop()
        if len(word) == depth:
            masses[word] = m
            continue
        for k, child in kids[unit]:
            visited += 1
            if visited > max_nodes:
                raise GuardError(f"cylinder walk exceeded {max_nodes} cylinders")
            step = mu.matrix[last][pos[k]] if word else mu.stationary[pos[k]]
            stack.append((word + (symbols[k],), child, pos[k], m * step))
    return CylinderMeasure(lang, depth, masses)


def frostman_cylinder_measure(lang: WordLanguage, fw: FrostmanWeights) -> CylinderMeasure:
    return CylinderMeasure(lang, fw.D, fw.normalized())


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
    depth_sums = [0.0] * D
    value = 0.0
    slack = 0.0
    # the prefix table holds every cylinder's mass, a leaf's own included
    mass, w = measure._prefix_table(), {s: weights[s] for s in measure.lang.symbols}
    for leaf, m in sorted(measure.masses.items()):
        if m <= 0.0:
            continue
        ratios = []
        wsum = 0.0
        for n in range(1, D + 1):
            wsum += w[leaf[n - 1]]
            r = -math.log(mass[leaf[:n]]) / wsum
            ratios.append(r)
            depth_sums[n - 1] += m * r
        window = ratios[lo - 1 :]
        value += m * min(window)
        slack = max(slack, max(window) - min(window))
    return LowerBsEstimate(
        value=value,
        depth_values=tuple(depth_sums),
        slack=slack,
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
    tail_window: int = 3,
    N: int = 1,
    max_nodes: int = MAX_TREE_NODES,
) -> VpReport:
    """Evaluate candidate measures supported on K against bs_dimension(K).

    Every candidate must give K full mass.  The normalized Frostman flow at
    lambda = dimension - tol is appended automatically; each estimate is
    compared against dimension + slack, with slack the candidate's own
    tail-window oscillation.  ``max_nodes`` bounds every cylinder walk.
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
    fw = frostman_measure(lang, weights, K, dim - tol, N, D, max_nodes)
    pool.append(("frostman", frostman_cylinder_measure(lang, fw)))
    dim_err = detail.certificate.error_bound
    for name, cand in pool:
        est = lower_bs_pressure(cand, weights, tail_window)
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
