"""Symbolic skeleton of an invariant partition.

The objects here carry everything downstream computations need: a finite
control range with named potentials, the partition data (symbols, step
length tau, one control word per cell), the admissible-word language in one
of two presentations, and additive per-symbol weights obtained by summing a
potential over each cell's control word.  Every pressure-like quantity in
the package is a function of (language, per-symbol weights) only.
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


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) with an empty sum mapping to -inf."""
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


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

    def is_positive(self) -> bool:
        return all(v > 0.0 for v in self.weights.values())

    def require_positive(self, role: str = "scaling weight") -> None:
        if not self.is_positive():
            bad = {i: v for i, v in self.weights.items() if v <= 0.0}
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
        weights[i] = math.fsum(table[u] for u in word)
    return PerSymbolWeights(weights, spec.tau, potential_name)


def word_weight(word: Sequence[int], weights: PerSymbolWeights) -> float:
    """Total weight of a word: sum of w over its symbols (0 for the empty word)."""
    total = 0.0
    for s in word:
        total += weights[s]
    return total


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


class _UnitWalk:
    """Breadth-first walk over a language's units, extended one depth at a time."""

    def __init__(self, symbols: Sequence[int]):
        self.sym_index = {s: k for k, s in enumerate(symbols)}
        self.units: list[object] = [None]
        self.index: dict[object, int] = {}
        self.edges: list[tuple[int, int, int]] = []  # (dst, src, sym)
        self.expanded = 0  # units[:expanded] have their out-edges
        self.depth = 0  # every unit of depth < self.depth is expanded
        self.graph: UnitGraph | None = None

    def graph_to(self, lang: "WordLanguage", depth: int) -> UnitGraph:
        if self.graph is None or (self.depth < depth and self.expanded < len(self.units)):
            while self.depth < depth and self.expanded < len(self.units):
                self._expand_level(lang)
            self.graph = self._compile()
        return self.graph

    def _expand_level(self, lang: "WordLanguage") -> None:
        end = len(self.units)
        for k in range(self.expanded, end):
            succ = lang.initial_units() if k == 0 else lang.unit_successors(self.units[k])
            for u2, s in succ:
                if u2 not in self.index:
                    self.index[u2] = len(self.units)
                    self.units.append(u2)
                self.edges.append((self.index[u2], k, self.sym_index[s]))
        self.expanded = end
        self.depth += 1

    def _compile(self) -> UnitGraph:
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 3)
        dst, src, sym = np.ascontiguousarray(edges[np.argsort(edges[:, 0], kind="stable")].T)
        return UnitGraph(
            n_units=len(self.units),
            src=src,
            sym=sym,
            starts=np.flatnonzero(np.diff(dst, prepend=0)),
            seg=dst - 1,
        )


class WordLanguage:
    """Admissible-word language of an invariant partition.

    Words are expanded through *units*: a unit is whatever a presentation
    needs to continue a word class (the last symbol for a transition
    relation, the set of current states for itinerary generators).  Distinct
    length-n words always map to a unique (unit chain); aggregating masses by
    unit is exact for every additive-weight sum used downstream.
    """

    symbols: tuple[int, ...]
    is_sft = False

    def initial_units(self) -> list[tuple[object, int]]:
        raise NotImplementedError

    def unit_successors(self, unit: object) -> list[tuple[object, int]]:
        raise NotImplementedError

    @cached_property
    def _unit_walk(self) -> _UnitWalk:
        return _UnitWalk(self.symbols)

    def unit_graph(self, depth: int) -> UnitGraph:
        """The units met by words shorter than ``depth``, with their labelled out-edges.

        The breadth-first walk is kept on the language and only extended when
        a later call asks for a deeper graph, so each unit is expanded once
        per language.  Once no new unit turns up the graph is complete and
        serves every depth; until then it holds at most the units of the
        words shorter than ``depth`` plus their successors.
        """
        return self._unit_walk.graph_to(self, depth)

    def iter_words(self, n: int, max_words: int = MAX_WORDS) -> Iterator[tuple[int, ...]]:
        """Admissible words of length n, in lexicographic order."""
        if n < 0:
            raise PreconditionError("word length must be >= 0")
        if n == 0:
            yield ()
            return
        count = 0
        # iterative DFS, expanding smaller symbols first
        frame = [(sym, unit) for unit, sym in self.initial_units()]
        frame.sort(reverse=True)
        todo = [((), s, u) for s, u in frame]
        while todo:
            prefix, sym, unit = todo.pop()
            word = prefix + (sym,)
            if len(word) == n:
                count += 1
                if count > max_words:
                    raise GuardError(f"word enumeration exceeded {max_words} words")
                yield word
                continue
            succ = [(s, u) for u, s in self.unit_successors(unit)]
            succ.sort(reverse=True)
            todo.extend((word, s, u) for s, u in succ)

    def words(self, n: int, max_words: int = MAX_WORDS) -> list[tuple[int, ...]]:
        return list(self.iter_words(n, max_words))

    def count_words(self, n: int) -> int:
        """|L^n| without enumerating words (unit-mass recursion)."""
        if n == 0:
            return 1
        masses: dict[object, int] = {}
        for unit, _sym in self.initial_units():
            masses[unit] = masses.get(unit, 0) + 1
        for _ in range(n - 1):
            nxt: dict[object, int] = {}
            for unit, c in masses.items():
                for u2, _s in self.unit_successors(unit):
                    nxt[u2] = nxt.get(u2, 0) + c
            masses = nxt
        return sum(masses.values())


class SftLanguage(WordLanguage):
    """Language of all paths in a transition relation over the symbols."""

    is_sft = True

    def __init__(self, symbols: Sequence[int], transitions: Iterable[tuple[int, int]]):
        self.symbols = tuple(sorted(symbols))
        succ: dict[int, set[int]] = {i: set() for i in self.symbols}
        for i, j in transitions:
            if i not in succ or j not in set(self.symbols):
                raise PreconditionError(f"transition ({i},{j}) uses unknown symbol")
            succ[i].add(j)
        self._succ = {i: tuple(sorted(js)) for i, js in succ.items()}
        dead = [i for i, js in self._succ.items() if not js]
        if dead:
            raise PreconditionError(
                f"symbols {dead} have no outgoing transition; admissible words could not extend"
            )

    @property
    def transitions(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in self.symbols for j in self._succ[i])

    def successors(self, symbol: int) -> tuple[int, ...]:
        return self._succ[symbol]

    def allows(self, i: int, j: int) -> bool:
        return j in self._succ[i]

    def initial_units(self):
        return [(i, i) for i in self.symbols]

    def unit_successors(self, unit):
        return [(j, j) for j in self._succ[unit]]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """0/1 matrix A[i, j] = [symbols[i] -> symbols[j]]."""
        idx = {s: k for k, s in enumerate(self.symbols)}
        A = np.zeros((len(self.symbols), len(self.symbols)))
        for i, js in self._succ.items():
            A[idx[i], [idx[j] for j in js]] = 1.0
        return A

    @cached_property
    def cyclic_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Strongly connected components that carry a cycle: (symbol indices, 0/1 block).

        Every infinite path ends in one of these blocks, so the spectral radius
        of any weighting of the relation is the largest radius among them.
        """
        idx = {s: k for k, s in enumerate(self.symbols)}
        succ = [[idx[j] for j in self._succ[i]] for i in self.symbols]
        blocks = []
        for comp in cyclic_components(succ):
            block = np.array(comp, dtype=np.intp)
            blocks.append((block, self.adjacency[np.ix_(block, block)]))
        return tuple(blocks)


def cyclic_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the graph v -> succ[v] that carry a cycle.

    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972) with an explicit stack;
    each component is returned as a sorted list of vertices.
    """
    order = [-1] * len(succ)  # discovery number
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    comps = []
    seen = 0

    def discover(v: int) -> None:
        nonlocal seen
        order[v] = low[v] = seen
        seen += 1
        stack.append(v)
        on_stack[v] = True

    for root in range(len(succ)):
        if order[root] >= 0:
            continue
        discover(root)
        work = [(root, 0)]
        while work:
            v, k = work[-1]
            if k < len(succ[v]):
                work[-1] = (v, k + 1)
                w = succ[v][k]
                if order[w] < 0:
                    discover(w)
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], order[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == order[v]:
                comp = []
                while not comp or comp[-1] != v:
                    comp.append(stack.pop())
                    on_stack[comp[-1]] = False
                if len(comp) > 1 or v in succ[v]:
                    comps.append(sorted(comp))
    return comps


class ItineraryLanguage(WordLanguage):
    """Distinct symbol itineraries of a deterministic map on finitely many states.

    ``step`` is the induced tau-step map on the invariant set, ``label`` the
    cell of each state.  A unit is the frozenset of current states of one
    word class; classes split as labels diverge, so there are at most
    ``len(states)`` words per length.
    """

    def __init__(self, states: Sequence[object], step: Mapping[object, object],
                 label: Mapping[object, int]):
        if not states:
            raise PreconditionError("itinerary language needs at least one state")
        self.states = tuple(states)
        self.step = dict(step)
        self.label = dict(label)
        for x in self.states:
            if x not in self.step or self.step[x] not in set(self.states):
                raise PreconditionError(f"state {x!r} has no in-set successor")
            if x not in self.label:
                raise PreconditionError(f"state {x!r} has no cell label")
        self.symbols = tuple(sorted(set(self.label[x] for x in self.states)))

    def _split(self, group: Iterable[object]) -> list[tuple[frozenset, int]]:
        buckets: dict[int, set] = {}
        for x in group:
            buckets.setdefault(self.label[x], set()).add(self.step[x])
        return [(frozenset(buckets[s]), s) for s in sorted(buckets)]

    def initial_units(self):
        return self._split(self.states)

    def unit_successors(self, unit):
        return self._split(unit)

    def cycles(self) -> list[list[object]]:
        """Cycles of the step map (every state falls into exactly one)."""
        color: dict[object, int] = {}
        cycles = []
        for x0 in self.states:
            if x0 in color:
                continue
            path, x = [], x0
            seen_at = {}
            while x not in color and x not in seen_at:
                seen_at[x] = len(path)
                path.append(x)
                x = self.step[x]
            if x in seen_at:
                cycles.append(path[seen_at[x]:])
            for y in path:
                color[y] = 1
        return cycles


def enumerate_words(lang: WordLanguage, n: int, max_words: int = MAX_WORDS) -> list[tuple[int, ...]]:
    """Exactly the admissible words of length n, lexicographically sorted."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    return lang.words(n, max_words)


@dataclass
class CylinderNode:
    """One nonempty cylinder: the admissible word spelling it, plus cumulative weights."""

    word: tuple[int, ...]
    unit: object
    cum: tuple[float, ...]
    children: list["CylinderNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def symbol(self) -> int | None:
        return self.word[-1] if self.word else None


@dataclass
class CylinderTree:
    """Laminar family of nonempty cylinders up to a depth cap.

    Node words at depth n are exactly L^n; two cylinders are nested iff one
    word prefixes the other and disjoint otherwise.
    """

    lang: WordLanguage
    weight_names: tuple[str, ...]
    depth_cap: int
    root: CylinderNode

    def levels(self) -> list[list[CylinderNode]]:
        out: list[list[CylinderNode]] = []
        frontier = [self.root]
        for _ in range(self.depth_cap):
            frontier = [c for node in frontier for c in node.children]
            out.append(frontier)
        return out

    def level(self, n: int) -> list[CylinderNode]:
        if not 0 < n <= self.depth_cap:
            raise PreconditionError(f"level {n} outside 1..{self.depth_cap}")
        return self.levels()[n - 1]

    def nodes(self) -> Iterator[CylinderNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.word:
                yield node
            stack.extend(reversed(node.children))

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())


def build_cylinder_tree(
    lang: WordLanguage,
    weights: Sequence[PerSymbolWeights],
    depth: int,
    max_nodes: int = MAX_TREE_NODES,
) -> CylinderTree:
    """Expand the cylinder tree to the given depth with cumulative weights."""
    if depth < 1:
        raise PreconditionError("depth cap must be >= 1")
    names = tuple(w.name or f"w{k}" for k, w in enumerate(weights))
    root = CylinderNode((), None, tuple(0.0 for _ in weights))
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.depth == depth:
            continue
        succ = lang.initial_units() if node.unit is None else lang.unit_successors(node.unit)
        for unit, sym in sorted(succ, key=lambda p: p[1]):
            cum = tuple(c + w[sym] for c, w in zip(node.cum, weights))
            child = CylinderNode(node.word + (sym,), unit, cum)
            node.children.append(child)
            count += 1
            if count > max_nodes:
                raise GuardError(f"cylinder tree exceeded {max_nodes} nodes")
            stack.append(child)
    return CylinderTree(lang, names, depth, root)
