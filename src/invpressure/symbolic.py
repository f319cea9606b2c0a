"""Symbolic skeleton of an invariant partition.

The objects here carry everything downstream computations need: a finite
control range with named potentials, the partition data (symbols, step
length tau, one control word per cell), the admissible-word language of a
transition relation or of a finite-state map, and additive per-symbol
weights obtained by summing a potential over each cell's control word.
Every pressure-like quantity in the package is a function of (language,
per-symbol weights) only.  Each language compiles its words to one integer
``UnitGraph``, and every solver, the cylinder tree included, walks that
graph; the tests keep the raw unit presentation as their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import GuardError, PreconditionError

NEG_INF = float("-inf")

#: Default resource guards (overridable per call and from the CLI).
MAX_WORDS = 5_000_000
MAX_TREE_NODES = 10_000_000
#: Points of a beta or T grid a CLI run accepts (fixed: no override).
MAX_GRID_POINTS = 10_000
#: Largest depth-like task integer (n_max, D) a CLI run accepts (fixed: no override).
MAX_DEPTH = 1_000
#: Largest decimal exponent magnitude of an exact config rational (fixed: no override).
MAX_EXPONENT = 1_000


def logsumexp(values: list[float]) -> float:
    """log(sum(exp(v))) of a list, with an empty sum mapping to -inf and the
    single-term case taken as is; a -inf term adds an exact 0.0."""
    if len(values) == 1:
        return values[0]
    m = max(values, default=NEG_INF)
    if m == NEG_INF or m == math.inf:
        return m
    return m + math.log(math.fsum([math.exp(v - m) for v in values]))


def logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = max(a, b)
    return m + math.log(math.exp(a - m) + math.exp(b - m))


@dataclass(frozen=True)
class ControlRange:
    """Finite set of control values with named potentials on them.

    ``potentials`` maps a potential name to a table assigning a real to every
    control value.  Scaling potentials (used as denominators of induced
    quantities) must be strictly positive; that is enforced where they are
    consumed, not here.
    """

    values: tuple[str, ...]
    potentials: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        if not self.values:
            raise PreconditionError("control range must be nonempty")
        if len(set(self.values)) != len(self.values):
            raise PreconditionError("duplicate control values")
        for name, table in self.potentials.items():
            missing = [u for u in self.values if u not in table]
            if missing:
                raise PreconditionError(
                    f"potential {name!r} undefined on control values {missing}"
                )

    def potential(self, name: str) -> Mapping[str, float]:
        try:
            return self.potentials[name]
        except KeyError:
            raise PreconditionError(f"unknown potential {name!r}") from None


@dataclass(frozen=True)
class PartitionSpec:
    """Partition data: symbols 1..q, step length tau, control word per cell."""

    tau: int
    control_words: Mapping[int, tuple[str, ...]]

    def __post_init__(self):
        if self.tau < 1:
            raise PreconditionError("tau must be a positive integer")
        if not self.control_words:
            raise PreconditionError("partition needs at least one cell")
        expected = set(range(1, len(self.control_words) + 1))
        if set(self.control_words) != expected:
            raise PreconditionError("cells must be labelled by symbols 1..q")
        for i, word in self.control_words.items():
            if len(word) != self.tau:
                raise PreconditionError(
                    f"control word of cell {i} has length {len(word)}, expected tau={self.tau}"
                )

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(sorted(self.control_words))


@dataclass(frozen=True)
class PerSymbolWeights:
    """Additive per-symbol weights w(i), the compiled form of a potential.

    ``w(i)`` is the potential summed over the tau entries of cell i's control
    word; a length-n word s then carries total weight ``sum_k w(s_k)``.
    """

    weights: Mapping[int, float]
    tau: int
    name: str | None = None

    def __post_init__(self):
        if self.tau < 1:
            raise PreconditionError("tau must be a positive integer")
        if not self.weights:
            raise PreconditionError("empty weight table")

    def __getitem__(self, symbol: int) -> float:
        try:
            return self.weights[symbol]
        except KeyError:
            raise PreconditionError(f"unknown symbol {symbol}") from None

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))

    def rate_min(self) -> float:
        """min_i w(i)/tau (per-symbol rate)."""
        return min(self.weights.values()) / self.tau

    def rate_max(self) -> float:
        return max(self.weights.values()) / self.tau

    def rate_absmax(self) -> float:
        return max(abs(v) for v in self.weights.values()) / self.tau

    def require_positive(self, role: str = "scaling weight") -> None:
        bad = {i: v for i, v in self.weights.items() if not v > 0.0}
        if bad:
            raise PreconditionError(f"{role} must be strictly positive, got {bad}")

    def scaled(self, factor: float, name: str | None = None) -> "PerSymbolWeights":
        return PerSymbolWeights(
            {i: factor * v for i, v in self.weights.items()}, self.tau, name
        )


def zero_weights(symbols: Sequence[int], tau: int) -> PerSymbolWeights:
    return PerSymbolWeights({i: 0.0 for i in symbols}, tau, "zero")


def combine_weights(
    w_phi: PerSymbolWeights, w_psi: PerSymbolWeights, beta: float
) -> PerSymbolWeights:
    """Per-symbol weights of the tilted potential phi - beta*psi."""
    if w_phi.tau != w_psi.tau or set(w_phi.weights) != set(w_psi.weights):
        raise PreconditionError("weight tables must share symbols and tau")
    return PerSymbolWeights(
        {i: w_phi.weights[i] - beta * w_psi.weights[i] for i in w_phi.weights},
        w_phi.tau,
    )


def derive_symbol_weights(
    crange: ControlRange, spec: PartitionSpec, potential_name: str
) -> PerSymbolWeights:
    """Compile a potential on the control range into per-symbol weights.

    w(i) = sum of the potential over the tau entries of cell i's control
    word.  Downstream computations never touch the control range again.
    """
    table = crange.potential(potential_name)
    known = set(crange.values)
    weights = {}
    for i, word in spec.control_words.items():
        for u in word:
            if u not in known:
                raise PreconditionError(
                    f"control value {u!r} of cell {i} missing from range"
                )
        try:
            weights[i] = math.fsum(table[u] for u in word)
        except OverflowError:
            raise PreconditionError(f"potential {potential_name!r} overflows on cell {i}") from None
    return PerSymbolWeights(weights, spec.tau, potential_name)


@dataclass(frozen=True, eq=False)
class UnitGraph:
    """A word language compiled to integers, to some depth.

    Units are numbered in breadth-first discovery order; unit 0 is the unit
    of the empty word, whose out-edges are the initial units, and
    ``n_units`` counts every unit discovered.  Edge e runs from unit
    ``src[e]`` and spells ``lang.symbols[sym[e]]``.  Edges are sorted by
    destination, and every unit but unit 0 was discovered through an edge:
    segment k, edges ``starts[k]`` up to the next start, holds the edges
    entering unit k + 1, and ``seg[e]`` is the segment of edge e.
    """

    n_units: int
    src: np.ndarray
    sym: np.ndarray
    starts: np.ndarray
    seg: np.ndarray

    @cached_property
    def children(self) -> list[list[tuple[int, int]]]:
        """(symbol index, child unit) of each unit's out-edges, by symbol.

        Shared by every walk over this graph, so callers must not mutate it.
        A unit not expanded yet (one first met at the depth a partial graph
        stops at) has an empty list.
        """
        kids: list[list[tuple[int, int]]] = [[] for _ in range(self.n_units)]
        for src, sym, seg in zip(self.src.tolist(), self.sym.tolist(), self.seg.tolist()):
            kids[src].append((sym, seg + 1))
        for out in kids:
            out.sort()
        return kids


class WordLanguage:
    """Admissible-word language of an invariant partition.

    Words are expanded through *units*: a unit is whatever a presentation
    needs to continue a word class (the last symbol for a transition
    relation, the sorted ids of the current states for itinerary
    generators).  Distinct length-n words always map to a unique (unit
    chain); aggregating masses by unit is exact for every additive-weight
    sum used downstream.  A subclass compiles its units to integers in
    ``unit_graph``, the one way the library expands words.
    """

    symbols: tuple[int, ...]

    # perfbench/tracing.py rebinds these two by name on both subclasses
    def initial_units(self) -> list[tuple[object, int]]:
        raise NotImplementedError

    def unit_successors(self, unit: object) -> list[tuple[object, int]]:
        raise NotImplementedError

    def unit_graph(self, depth: int) -> UnitGraph:
        """The units met by words shorter than ``depth``, with their labelled out-edges.

        Units are numbered breadth first, each unit's successors by symbol
        and new units in order of first appearance.  Once no new unit turns
        up the graph is complete and serves every depth; until then it holds
        at most the units of the words shorter than ``depth`` plus their
        successors.
        """
        raise NotImplementedError

    @cached_property
    def _cover_graphs(self) -> dict:
        """``covers``' compiled cover graphs by (target set, depth); shared, never mutated."""
        return {}


class SftLanguage(WordLanguage):
    """Language of all paths in a transition relation over the symbols.

    The relation is compiled once, to its 0/1 ``adjacency`` A[i, j] =
    [symbols[i] -> symbols[j]]; the unit graph, in which unit k + 1 is
    symbol k, and the cyclic blocks are both read off that matrix.
    """

    def __init__(self, symbols: Sequence[int], transitions: Iterable[tuple[int, int]]):
        self.symbols = tuple(sorted(symbols))
        if not isinstance(transitions, (list, tuple, np.ndarray)):
            transitions = list(transitions)
        if len(transitions) == 0:
            raise PreconditionError("transition relation is empty")
        ends = self._symbol_indices(transitions)
        q = len(self.symbols)
        self.adjacency = np.zeros((q, q))
        self.adjacency[ends[:, 0], ends[:, 1]] = 1.0
        dead = [self.symbols[k] for k in np.flatnonzero(~self.adjacency.any(axis=1)).tolist()]
        if dead:
            raise PreconditionError(
                f"symbols {dead} have no outgoing transition; admissible words could not extend"
            )

    def _symbol_indices(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """(edges, 2) symbol indices of the edge ends, looked up all at once; the
        first edge with an end that is no symbol is refused.

        The ends are one array, of Python values unless all are int64s.  The
        index is the offset from the first symbol when the symbols are
        consecutive integers, as a relation's 1..q are, and a bisection
        otherwise.  The symbol found is compared with the end, so a float, an
        integer past int64, an end that orders against no symbol (None, a
        string) or a pair of another length is judged by value, never by a cast.
        """
        labels = np.array(self.symbols)
        try:
            ends = np.asarray(pairs)
            if ends.dtype.kind != "i":
                ends = np.array(pairs, dtype=object)
            if ends.dtype.kind == labels.dtype.kind == "i" and (
                self.symbols[-1] - self.symbols[0] == len(labels) - 1
            ):
                idx = ends - labels[0]
            else:
                idx = np.searchsorted(labels, ends)
            idx = np.minimum(np.maximum(idx, 0), len(labels) - 1)
            if ends.shape == (len(pairs), 2) and (labels[idx] == ends).all():
                return idx
        except (TypeError, ValueError):  # an end that orders against no symbol; a ragged pair
            pass
        bad = next(p for p in pairs if len(p) != 2 or any(e not in self.symbols for e in p))
        raise PreconditionError(f"transition ({','.join(map(str, bad))}) uses unknown symbol")

    def unit_graph(self, depth: int) -> UnitGraph:
        """The breadth-first walk's graph in closed form, complete at every depth:
        every unit turns up at depth 1.  Below depth 2 the edges out of units
        1..q carry no mass, so every reader of the graph gets the walk's numbers."""
        return self._complete_unit_graph

    @cached_property
    def _complete_unit_graph(self) -> UnitGraph:
        # Unit 0 has an edge to every symbol, and symbol k is unit k + 1, with an
        # edge to each successor of k.  Row k of C marks the sources of the edges
        # that spell symbol k, unit 0 first: C's nonzero entries in row-major
        # order are the edges sorted by destination, then by source, which is
        # the order the walk's stable sort leaves them in.  Each segment opens
        # with its edge from unit 0.
        q = len(self.symbols)
        C = np.ones((q, q + 1))
        C[:, 1:] = self.adjacency.T
        sym, src = np.divmod(np.flatnonzero(C), q + 1)
        return UnitGraph(n_units=q + 1, src=src, sym=sym, starts=np.flatnonzero(src == 0), seg=sym)

    @cached_property
    def cyclic_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Strongly connected components that carry a cycle: (symbol indices, 0/1 block).

        Every infinite path ends in one of these blocks, so the spectral radius
        of any weighting of the relation is the largest radius among them.
        """
        blocks = []
        for comp in cyclic_components(_adjacency_lists(self.adjacency)):
            block = np.array(comp, dtype=np.intp)
            blocks.append((block, self.adjacency[np.ix_(block, block)]))
        return tuple(blocks)


def _adjacency_lists(M: np.ndarray) -> list[list[int]]:
    """The column indices of each row's nonzero entries, for a square matrix M,
    from one ``np.nonzero``."""
    rows, cols = np.nonzero(M)
    bounds = np.searchsorted(rows, np.arange(len(M) + 1)).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]


def cyclic_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the graph v -> succ[v] that carry a cycle.

    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972), iterative: each frame of
    the depth-first stack holds a vertex and the iterator over its successors,
    so every edge is looked at once, in O(V + E) in all.  A component carries a
    cycle when it has two or more vertices or a self-loop.  Components come in
    the order Tarjan's algorithm completes them, each as a sorted list; no
    component reaches one that comes after it.
    """
    order = [-1] * len(succ)  # discovery number
    low = [0] * len(succ)
    slot = [-1] * len(succ)  # position on the component stack, -1 when off it
    stack: list[int] = []
    comps = []
    seen = 0
    for root in range(len(succ)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        slot[root] = len(stack)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    slot[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if slot[w] >= 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    comp = stack[slot[v]:]
                    del stack[slot[v]:]
                    for x in comp:
                        slot[x] = -1
                    if len(comp) > 1 or v in succ[v]:
                        comps.append(sorted(comp))
    return comps


def _changes(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a that differ from the entry before; the first always does."""
    mask = np.empty(len(a), dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


class ItineraryLanguage(WordLanguage):
    """Distinct symbol itineraries of a deterministic map on finitely many states.

    The states are numbered 0..len(states)-1: ``step[x]`` is the id of the
    induced tau-step image of state x, and ``label[x]`` its cell.  A unit is
    the sorted ids of the current states of one word class; classes split
    as labels diverge, so there are at most ``len(states)`` words per length.
    ``unit_graph`` numbers the units by the bytes of their ids as it expands
    them, a level at a time, and keeps no unit as a tuple.
    """

    def __init__(self, states: Sequence[object], step: Sequence[int], label: Sequence[int]):
        if not states:
            raise PreconditionError("itinerary language needs at least one state")
        self.states = tuple(states)
        self.step = np.asarray(step, dtype=np.intp)
        self.label = np.asarray(label, dtype=np.intp)
        m = len(self.states)
        if self.step.shape != (m,) or self.label.shape != (m,):
            raise PreconditionError("itinerary language needs one successor and one label per state")
        bad = np.flatnonzero((self.step < 0) | (self.step >= m))
        if len(bad):
            raise PreconditionError(f"state {self.states[bad[0]]!r} has no in-set successor")
        self.symbols = tuple(sorted(set(self.label.tolist())))
        # a level's sort key (unit, label, next state) is below m * labels * m: a
        # level holds at most m states, so at most m units
        if m * len(self.symbols) * m >= 2**63:
            raise GuardError(f"{m} states over {len(self.symbols)} labels overflow the level sort key")
        self._sym = np.searchsorted(self.symbols, self.label)  # symbol index of each state
        # the level expansion: unit numbers by the bytes of their sorted state ids,
        # the edges of each expanded level, and the units found last, not yet expanded,
        # as their state ids and each id's unit (unit 0 holds every state)
        self._units: dict[bytes, int] = {}
        self._edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._front = (np.zeros(m, dtype=np.intp), np.arange(m))
        self._depth = 0
        self._graph: UnitGraph | None = None

    def unit_graph(self, depth: int) -> UnitGraph:
        """The breadth-first unit graph, expanded a whole level at a time and kept
        on the language: a deeper call extends it, so each level is expanded
        once per language."""
        if self._graph is None or (self._depth < depth and len(self._front[0])):
            while self._depth < depth and len(self._front[0]):
                self._expand_level()
            dst, src, sym = (
                np.concatenate([e[k] for e in self._edges] or [np.zeros(0, np.intp)]) for k in range(3)
            )
            order = np.argsort(dst, kind="stable")
            dst = dst[order]
            self._graph = UnitGraph(
                n_units=len(self._units) + 1,
                src=src[order],
                sym=sym[order],
                starts=np.flatnonzero(np.diff(dst, prepend=0)),
                seg=dst - 1,
            )
        return self._graph

    def _expand_level(self) -> None:
        # one sort of the level's (unit, label, next state) keys, repeats dropped: each
        # run of one (unit, label) is a successor unit, as its sorted next states
        owner, states = self._front
        m, q, first = len(self.step), len(self.symbols), int(owner[0])
        key = ((owner - first) * q + self._sym[states]) * m + self.step[states]
        key.sort()
        key = key[_changes(key)]
        pair, nxt = np.divmod(key, m)
        starts = np.flatnonzero(_changes(pair))
        src, sym = np.divmod(pair[starts], q)
        # a successor unit is keyed by the bytes of its ids and numbered on its first
        # appearance; a run whose number exceeds every earlier one is a new unit
        ids, bounds = nxt.tobytes(), np.append(starts, len(nxt))
        cuts = (bounds * nxt.itemsize).tolist()
        units, n = self._units, len(self._units)
        dst = np.array(
            [units.setdefault(ids[a:b], len(units) + 1) for a, b in zip(cuts, cuts[1:])],
            dtype=np.intp,
        )
        fresh = dst > np.maximum.accumulate(np.append(n, dst[:-1]))
        sizes = np.diff(bounds)
        self._edges.append((dst, src + first, sym))
        self._front = (np.repeat(dst[fresh], sizes[fresh]), nxt[np.repeat(fresh, sizes)])
        self._depth += 1

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycles of the step map, each as its state ids in increasing order, found once.

        After 2^K >= len(states) steps every state is on its cycle, so the image
        of step^(2^K) is the set of cycle states.  The same K doublings take the
        smallest id over 2^K steps of each state's orbit: on a cycle, that names
        the cycle.
        """
        jump, least = self.step, np.arange(len(self.step))
        for _ in range(max(len(self.step) - 1, 0).bit_length()):
            least = np.minimum(least, least[jump])
            jump = jump[jump]
        on_cycle = np.zeros(len(jump), dtype=bool)
        on_cycle[jump] = True
        members = np.flatnonzero(on_cycle)
        members = members[np.argsort(least[members], kind="stable")]
        cuts = np.flatnonzero(_changes(least[members])).tolist() + [len(members)]
        members = members.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip(cuts, cuts[1:]))


@dataclass
class CylinderNode:
    """One nonempty cylinder: the admissible word spelling it, its unit in the
    language's unit graph, plus cumulative weights."""

    word: tuple[int, ...]
    unit: int
    cum: tuple[float, ...]
    children: list["CylinderNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.word)


@dataclass
class CylinderTree:
    """Laminar family of nonempty cylinders up to a depth cap.

    Node words at depth n are exactly L^n; two cylinders are nested iff one
    word prefixes the other and disjoint otherwise.
    """

    depth_cap: int
    root: CylinderNode

    def levels(self) -> list[list[CylinderNode]]:
        out: list[list[CylinderNode]] = []
        frontier = [self.root]
        for _ in range(self.depth_cap):
            frontier = [c for node in frontier for c in node.children]
            out.append(frontier)
        return out

    def nodes(self) -> Iterator[CylinderNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.word:
                yield node
            stack.extend(reversed(node.children))


# perfbench/tracing.py rebinds this by name
def build_cylinder_tree(
    lang: WordLanguage,
    weights: Sequence[PerSymbolWeights],
    depth: int,
    max_nodes: int = MAX_TREE_NODES,
) -> CylinderTree:
    """Expand the cylinder tree to the given depth with cumulative weights, on the
    children of ``lang.unit_graph(depth)`` from unit 0, the empty word; each
    node's children come by symbol, and each cumulative weight adds one term
    per symbol, left to right."""
    if depth < 1:
        raise PreconditionError("depth cap must be >= 1")
    kids = lang.unit_graph(depth).children
    root = CylinderNode((), 0, tuple(0.0 for _ in weights))
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.depth == depth:
            continue
        for k, unit in kids[node.unit]:
            sym = lang.symbols[k]
            cum = tuple(c + w[sym] for c, w in zip(node.cum, weights))
            child = CylinderNode(node.word + (sym,), unit, cum)
            node.children.append(child)
            count += 1
            if count > max_nodes:
                raise GuardError(f"cylinder tree exceeded {max_nodes} nodes")
            stack.append(child)
    return CylinderTree(depth, root)
