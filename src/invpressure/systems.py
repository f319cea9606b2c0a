"""Concrete control-system backends and partition validation.

Two desk-scale models are supported: finite-state systems (explicit
transition table, exhaustively validated) and one-dimensional affine
interval systems x -> q*x + u (validated with exact rational interval
arithmetic).  Valid partitions compile to a ``WordLanguage``:
finite-state systems produce itinerary languages, and explicit transition
relations produce ``SftLanguage`` directly.  A finite-state system's
itinerary language numbers the invariant states in ``invariant_set`` order
and holds its tau-step map and cell labels as integer arrays over those ids;
a unit is the sorted ids of its current states, not a set of state names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError
from .symbolic import ItineraryLanguage, PartitionSpec, SftLanguage, WordLanguage


@dataclass(frozen=True)
class FiniteStateSystem:
    """Finite state space with per-control transitions and a labelled invariant set.

    ``transition[(x, u)]`` is the successor of state x under control value u
    (missing pairs mean the move is undefined and counts as leaving Q).
    ``invariant_set`` is the controlled invariant set; ``cell_of`` assigns
    each of its states to a partition symbol.  No state may be listed twice.
    """

    states: tuple[object, ...]
    transition: Mapping[tuple[object, str], object]
    invariant_set: tuple[object, ...]
    cell_of: Mapping[object, int]

    def __post_init__(self):
        state_set = set(self.states)
        for name, listed, distinct in (
            ("states", self.states, state_set),
            ("invariant_set", self.invariant_set, set(self.invariant_set)),
        ):
            if len(distinct) != len(listed):
                seen: set = set()
                twice = next(x for x in listed if x in seen or seen.add(x))
                raise PreconditionError(f"state {twice!r} is listed twice in {name}")
        for x in self.invariant_set:
            if x not in state_set:
                raise PreconditionError(f"invariant-set state {x!r} unknown")
            if x not in self.cell_of:
                raise PreconditionError(f"state {x!r} has no cell assignment")


@dataclass(frozen=True)
class AffineIntervalSystem:
    """Scalar system x -> q*x + u on a closed interval, with interval cells.

    ``cut_points`` are the strictly increasing interior endpoints; cell i is
    [c_{i-1}, c_i) except the last, which is closed.  All numbers are exact
    rationals so containment checks carry no rounding.
    """

    contraction: Fraction
    control_values: Mapping[str, Fraction]
    interval: tuple[Fraction, Fraction]
    cut_points: tuple[Fraction, ...]

    def __post_init__(self):
        if not 0 < self.contraction < 1:
            raise PreconditionError("contraction must lie in (0,1)")
        a, b = self.interval
        if not a < b:
            raise PreconditionError("invariant interval is empty")
        pts = (a,) + self.cut_points + (b,)
        if not all(p < q_ for p, q_ in zip(pts, pts[1:])):
            raise PreconditionError("cut points must be strictly increasing inside the interval")

    @property
    def cell_count(self) -> int:
        return len(self.cut_points) + 1

    def cell(self, i: int) -> tuple[Fraction, Fraction, bool]:
        """Cell i as (lo, hi, hi_closed)."""
        a, b = self.interval
        pts = (a,) + self.cut_points + (b,)
        if not 1 <= i <= self.cell_count:
            raise PreconditionError(f"cell {i} outside 1..{self.cell_count}")
        return pts[i - 1], pts[i], i == self.cell_count


@dataclass(frozen=True)
class PartitionValidationReport:
    """Outcome of checking the partition condition on a concrete system."""

    valid: bool
    violations: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        if self.valid != (not self.violations):
            raise PreconditionError("validity flag inconsistent with violation list")


def _walk_finite_state(
    system: FiniteStateSystem, spec: PartitionSpec
) -> tuple[list[int], list[int], list[tuple[int, int, str]]]:
    """(tau-step images, cells, violations) in state ids, which number
    ``invariant_set`` in order.  Every state takes its cell's control word one
    step at a time, all states together; a state stops at its first escape (a
    violation), where its id becomes -1.  Violations come by symbol, then in
    ``invariant_set`` order."""
    names = system.invariant_set
    ids = {x: k for k, x in enumerate(names)}
    ids.pop(None, None)  # None is the undefined move of transition.get, never a successor
    cells = [system.cell_of[x] for x in names]
    used = set(cells)
    if not used <= set(spec.symbols):
        raise PreconditionError(f"system cells {sorted(used)} not all in partition symbols")
    move = system.transition.get
    words = [spec.control_words[i] for i in cells]
    at = range(len(names))
    escape = [0] * len(names)  # the step a state escapes at, or 0
    for j in range(spec.tau):
        at = [k if k < 0 else ids.get(move((names[k], word[j])), -1) for k, word in zip(at, words)]
        escape = [e or (j + 1 if k < 0 else 0) for e, k in zip(escape, at)]
    violations = [
        (i, escape[x], f"state {names[x]!r} escapes at step {escape[x]}")
        for i, x in sorted((cells[x], x) for x, e in enumerate(escape) if e)
    ]
    return at, cells, violations


def _validate_affine(
    system: AffineIntervalSystem, spec: PartitionSpec
) -> list[tuple[int, int, str]]:
    if len(spec.symbols) != system.cell_count:
        raise PreconditionError(
            f"partition has {len(spec.symbols)} symbols but the system has "
            f"{system.cell_count} cells"
        )
    a, b = system.interval
    violations = []
    for i in spec.symbols:
        lo, hi, _closed = system.cell(i)
        # closures of the stepwise images; affine images of intervals are intervals
        for j, u in enumerate(spec.control_words[i], start=1):
            if u not in system.control_values:
                raise PreconditionError(f"control value {u!r} not an affine input")
            uval = system.control_values[u]
            lo = system.contraction * lo + uval
            hi = system.contraction * hi + uval
            if lo < a or hi > b:
                violations.append((i, j, f"image [{lo},{hi}] leaves [{a},{b}]"))
                break
    return violations


def validate_invariant_partition(system, spec: PartitionSpec) -> PartitionValidationReport:
    """Check that each cell stays inside Q at every step of its control word.

    Finite-state systems are simulated exhaustively over all states; affine
    systems propagate each cell interval through x -> q*x + u step by step
    with exact rational endpoints.
    """
    if isinstance(system, FiniteStateSystem):
        violations = _walk_finite_state(system, spec)[2]
    elif isinstance(system, AffineIntervalSystem):
        violations = _validate_affine(system, spec)
    else:
        raise PreconditionError(f"unsupported system type {type(system).__name__}")
    return PartitionValidationReport(not violations, tuple(violations))


def itinerary_language(system: FiniteStateSystem, spec: PartitionSpec) -> WordLanguage:
    """Language of symbol itineraries of the induced tau-step map on Q."""
    step, cells, violations = _walk_finite_state(system, spec)
    if violations:
        raise PreconditionError(f"partition not invariant; first violation: {violations[0]}")
    return ItineraryLanguage(system.invariant_set, step, cells)


def compile_sft(
    symbols: Sequence[int],
    transitions: Iterable[tuple[int, int]],
    spec: PartitionSpec | None = None,
) -> SftLanguage:
    """Language of all paths of an explicit transition relation, given as pairs
    of symbols or as an (edges, 2) integer array."""
    if spec is not None and tuple(sorted(symbols)) != spec.symbols:
        raise PreconditionError("relation symbols do not match the partition")
    return SftLanguage(symbols, transitions)
