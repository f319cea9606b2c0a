"""Independent reference checks for every job the benchmark runs.

Each check recomputes the job's answer, or a certificate of it, from the
job's instance data with code that shares nothing with ``invpressure``:

* SFT pressure, scan and Bowen roots: numpy ``eigvals`` of the weighted
  transition matrix, and dense scaled matrix-vector level sums;
* induced sums: a dense dynamic program over exact integer psi-sums (SFT),
  or itinerary classes refined state by state (finite-state systems);
* cover optima, jumps and dimensions: a dense numpy recursion over the unit
  graph of the language, evaluated on both sides of the reported value;
* itinerary pressure and roots: cycle means of the step map, found here;
* ``validate``: direct simulation, with exact rationals for affine systems.

``check(job, manifest, tables)`` returns None when the output is right and a
one-line reason otherwise.  ``tables`` maps each CSV file name the run wrote
to its rows without the header.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from workloads import PSI_UNITS, adjacency

REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _lse(v: np.ndarray) -> float:
    m = np.max(v) if v.size else -math.inf
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def _units(s: str) -> int:
    whole, _, frac = s.partition(".")
    return int(whole) * PSI_UNITS + int((frac + "0000")[:4])


# ---------------------------------------------------------------------------
# unit graphs: symbols for an SFT, itinerary classes for a finite-state system


class UnitGraph:
    """Word language as a graph of continuation units with labelled edges."""

    def __init__(self, n_units: int, init: list[tuple[int, int]], edges: list[tuple[int, int, int]]):
        edges = sorted(edges)
        self.n = n_units
        self.init_unit = np.array([u for u, _ in init])
        self.init_sym = np.array([s for _, s in init])
        self.src = np.array([e[0] for e in edges])
        self.dst = np.array([e[1] for e in edges])
        self.sym = np.array([e[2] for e in edges])
        self.starts = np.searchsorted(self.src, np.arange(n_units))

    def log_cover_optimum(self, step: np.ndarray, D: int, N: int = 1) -> float:
        """log of the optimal cover cost when a cylinder costs exp(sum of step[s])."""
        alpha = np.zeros(self.n)
        for n in range(D - 1, 0, -1):
            vals = step[self.sym] + alpha[self.dst]
            m = np.maximum.reduceat(vals, self.starts)
            ls = m + np.log(np.add.reduceat(np.exp(vals - m[self.src]), self.starts))
            alpha = np.minimum(0.0, ls) if n >= N else ls
        return _lse(step[self.init_sym] + alpha[self.init_unit])


def sft_graph(q: int, edges) -> UnitGraph:
    return UnitGraph(q, [(i, i) for i in range(q)], [(i - 1, j - 1, j - 1) for i, j in edges])


class Itinerary:
    """Step map and labels of a finite-state system under its own cell controls."""

    def __init__(self, sysd: dict):
        states = sysd["states"]
        index = {x: k for k, x in enumerate(states)}
        values = sysd["values"]
        self.label = np.array([sysd["cell_of"][x] - 1 for x in states])
        self.step = np.array(
            [index[sysd["transition"][x][values[sysd["cell_of"][x] - 1]]] for x in states]
        )

    def cycles(self) -> list[list[int]]:
        seen = np.zeros(len(self.step), dtype=bool)
        out = []
        for x0 in range(len(self.step)):
            path, pos, x = [], {}, x0
            while not seen[x] and x not in pos:
                pos[x] = len(path)
                path.append(x)
                x = int(self.step[x])
            if x in pos:
                out.append(path[pos[x]:])
            seen[path] = True
        return out

    def graph(self) -> UnitGraph:
        ids: dict[frozenset, int] = {}
        edges = []

        def split(group) -> list[tuple[int, int]]:
            buckets: dict[int, set] = {}
            for x in group:
                buckets.setdefault(int(self.label[x]), set()).add(int(self.step[x]))
            out = []
            for s, nxt in buckets.items():
                key = frozenset(nxt)
                if key not in ids:
                    ids[key] = len(ids)
                    todo.append(key)
                out.append((ids[key], s))
            return out

        todo: list[frozenset] = []
        init = split(range(len(self.step)))
        while todo:
            unit = todo.pop()
            edges.extend((ids[unit], v, s) for v, s in split(unit))
        return UnitGraph(len(ids), init, edges)


# ---------------------------------------------------------------------------
# exact limits


def sft_log_radius(q: int, edges, w: np.ndarray) -> float:
    M = np.zeros((q, q))
    for i, j in edges:
        M[i - 1, j - 1] = math.exp(w[i - 1])
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    return math.log(rho)


def decreasing_root(f, lo: float = -1.0, hi: float = 1.0) -> float:
    while f(lo) <= 0:
        lo -= 2 * (hi - lo)
    while f(hi) >= 0:
        hi += 2 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def sft_level_sums(q: int, edges, w: np.ndarray, n_max: int) -> np.ndarray:
    """log sum over length-n paths of exp(weight), n = 1..n_max (scaled powers)."""
    A = adjacency(q, edges)
    ew = np.exp(w)
    v, scale, out = ew.copy(), 0.0, []
    for n in range(n_max):
        if n:
            v = (v @ A) * ew
        s = v.sum()
        scale += math.log(s)
        v /= s
        out.append(scale)
    return np.array(out)


def sft_induced(q: int, edges, phi: np.ndarray, psi_units: list[int], T: int) -> float:
    """Budget-T induced sum by length layers over exact integer psi-sums.

    Every psi is 1 mod 16 in 1e-4 units, so a length-k word with psi-sum s has
    s = 16a + k; layer k stores log-masses on the (a, last symbol) grid.
    """
    A = adjacency(q, edges)
    budget = T * PSI_UNITS
    c = np.array([(u - 1) // 16 for u in psi_units])
    u = np.array(psi_units)
    reach = np.array([u[A[j] > 0].max() for j in range(q)])  # largest next psi per symbol
    rows = budget // 16 + 1
    total = -math.inf if u.max() <= budget else 0.0
    layer = np.full((rows, q), -np.inf)
    for j in range(q):
        if u[j] <= budget:
            layer[c[j], j] = phi[j]
    k = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        while np.isfinite(layer).any():
            s = 16 * np.arange(rows)[:, None] + k
            crossing = (s + reach[None, :] > budget) & np.isfinite(layer)
            if crossing.any():
                total = float(np.logaddexp(total, _lse(layer[crossing])))
            m = np.max(layer, axis=1, keepdims=True)
            m = np.where(np.isfinite(m), m, 0.0)
            moved = np.log(np.exp(layer - m) @ A) + m + phi[None, :]
            nxt = np.full((rows, q), -np.inf)
            for j in range(q):
                nxt[c[j]:, j] = moved[: rows - c[j], j]
            k += 1
            nxt[16 * np.arange(rows) + k > budget, :] = -np.inf
            layer = nxt
    return total


def itinerary_classes(it: Itinerary, phi: np.ndarray, depth: int, psi_units=None):
    """Yield (n, class weights, class psi-sums, next-label psi maximum) for n = 0..depth.

    Classes at depth n are the distinct length-n itineraries; they are
    refined state by state, never through units.
    """
    n_states = len(it.step)
    cls = np.zeros(n_states, dtype=np.int64)
    cur = np.arange(n_states)
    wsum = np.zeros(1)
    usum = np.zeros(1, dtype=np.int64)
    units = np.array(psi_units) if psi_units is not None else None
    for n in range(depth + 1):
        lab = it.label[cur]
        nxt_max = None
        if units is not None:
            nxt_max = np.full(len(wsum), -1, dtype=np.int64)
            np.maximum.at(nxt_max, cls, units[lab])
        yield n, wsum, usum, nxt_max, cls
        key = cls * 64 + lab
        uniq, new_cls = np.unique(key, return_inverse=True)
        parent, sym = uniq // 64, uniq % 64
        wsum = wsum[parent] + phi[sym]
        if units is not None:
            usum = usum[parent] + units[sym]
        cls = new_cls
        cur = it.step[cur]


def itinerary_level_sums(it: Itinerary, phi: np.ndarray, n_max: int) -> list[float]:
    out = []
    for n, wsum, _, _, _ in itinerary_classes(it, phi, n_max):
        if n:
            out.append(_lse(wsum))
    return out


def itinerary_induced(it: Itinerary, phi: np.ndarray, psi_units: list[int], T: int) -> float:
    budget = T * PSI_UNITS
    depth = budget // min(psi_units) + 1
    total = -math.inf
    for _, wsum, usum, nxt_max, cls in itinerary_classes(it, phi, depth, psi_units):
        inside = usum <= budget
        if not inside.any():
            break
        crossing = inside & (usum + nxt_max > budget)
        if crossing.any():
            total = float(np.logaddexp(total, _lse(wsum[crossing])))
    return total


# ---------------------------------------------------------------------------
# the per-command checks


def _table(inst: dict, name: str) -> np.ndarray:
    return np.array([float(x) for x in inst["tables"][name]])


def _col(tables: dict, name: str, k: int) -> list[str]:
    return [row[k] for row in tables[name]]


def _check_flip(rows: list[list[str]], root: float) -> str | None:
    div = [float(r[0]) for r in rows if r[1] == "divergent-evidence"]
    conv = [float(r[0]) for r in rows if r[1] == "convergent-with-bound"]
    if not div or not conv:
        return f"no verdict flip on the grid (root {root!r})"
    if not max(div) < root < min(conv):
        return f"flip [{max(div)}, {min(conv)}] misses root {root!r}"
    return None


def _check_root_bracket(f, value: float, err: float, what: str) -> str | None:
    """f is decreasing with its zero at the true root; value must be within err of it."""
    e = err * (1 + 1e-6) + 1e-12
    lo, hi = f(value - e), f(value + e)
    if not lo > 0.0 > hi:
        return f"{what} {value!r} not within {err!r} of the root (f={lo!r}, {hi!r})"
    return None


def _check_dimension(graph: UnitGraph, w: np.ndarray, D: int, row: list[str], tol: float):
    value, _res, err, jump, gap = (float(x) for x in row)
    g = lambda t: graph.log_cover_optimum(-t * w, D)
    inner = tol / 16
    return (
        _check_root_bracket(g, value, err, "dimension")
        or _check_root_bracket(g, jump, inner, "jump")
        or (None if gap <= err + inner else f"root_jump_gap {gap} exceeds {err + inner}")
    )


def check(job, manifest: dict, tables: dict[str, list[list[str]]]) -> str | None:
    task = job.config["task"]
    command = task["command"]
    info = manifest["info"]
    kind = job.inst["kind"]
    main = command.replace("-", "_") + ".csv"
    rows = tables.get(main, [])

    if command == "validate":
        expected = (validate_affine(job.config) if kind == "affine"
                    else validate_finite_state(job.inst["system"]))
        if info.get("valid") != (expected == 0) or len(rows) != expected:
            return f"validate: valid={info.get('valid')}, {len(rows)} rows; expected {expected}"
        return None

    phi = _table(job.inst, task.get("phi", "phi"))
    psi = _table(job.inst, task["psi"]) if "psi" in task else None
    if kind == "itinerary":
        it = Itinerary(job.inst["system"])
        pressure = lambda b: max(
            math.fsum(phi[it.label[c]] - b * psi[it.label[c]]) / len(c) for c in it.cycles())
    else:
        q, edges = job.inst["q"], job.inst["edges"]
        pressure = lambda b: sft_log_radius(q, edges, phi - b * psi)

    if command == "pressure":
        n_max = int(task.get("n_max", 120))
        if kind == "itinerary":
            exact = max(math.fsum(phi[it.label[c]]) / len(c) for c in it.cycles())
            sums = itinerary_level_sums(it, phi, n_max)
        else:
            exact = sft_log_radius(q, edges, phi)
            sums = sft_level_sums(q, edges, phi, n_max)
        if not _close(info["oracle"], exact):
            return f"pressure oracle {info['oracle']!r} != {exact!r}"
        values = [float(v) for v in _col(tables, main, 1)]
        ref = [s / n for n, s in enumerate(sums, start=1)]
        bad = [n for n, (a, b) in enumerate(zip(values, ref), start=1) if not _close(a, b)]
        if len(values) != n_max or bad:
            return f"pressure level sums differ at n={bad[:3]}"
        return None

    if command == "scan":
        for beta, value in tables[main]:
            if not _close(float(value), pressure(float(beta))):
                return f"scan at beta={beta}: {value} != {pressure(float(beta))!r}"
        return None

    if command == "bowen-root":
        beta, _res, err = (float(x) for x in rows[0][:3])
        if err > float(task["tol"]):
            return f"bowen-root error_bound {err} exceeds tol {task['tol']}"
        return _check_root_bracket(pressure, beta, err, "bowen-root")

    if command == "characterize":
        return _check_flip(rows, decreasing_root(pressure))

    if command == "induced":
        T = int(task["T_grid"][0])
        units = [_units(s) for s in job.inst["tables"][task["psi"]]]
        ref = (itinerary_induced(it, phi, units, T) if kind == "itinerary"
               else sft_induced(q, edges, phi, units, T))
        got = float(rows[0][1])
        return None if _close(got, ref) else f"induced T={T}: {got!r} != {ref!r}"

    D = int(task["D"])
    graph = it.graph() if kind == "itinerary" else sft_graph(q, edges)

    if command == "pp-pressure":
        crit = float(rows[0][0])
        f = lambda lam: graph.log_cover_optimum(phi - lam, D)
        bad = _check_root_bracket(f, crit, 1e-7, "critical exponent")
        if bad:
            return bad
        return check_cover(q, edges, D, phi, crit, tables["pp_pressure_cover_solution.csv"], f(crit))

    if command == "bs-dim":
        return _check_dimension(graph, phi, D, rows[0], float(task.get("tol", "1e-6")))

    if command == "vp-check":
        if not all(r[4] == "True" for r in rows):
            return f"vp-check candidates above the bound: {[r[0] for r in rows if r[4] != 'True']}"
        g = lambda t: graph.log_cover_optimum(-t * phi, D)
        return _check_root_bracket(g, info["dimension"], 2e-6, "vp-check dimension")

    lam = float(task["lambda"])
    opt = lambda l: math.exp(graph.log_cover_optimum(-l * phi, D))

    if command == "sandwich":
        r_eps, w_lam, r_lam = (float(x) for x in rows[0][2:5])
        eps = float(task["epsilon"])
        if rows[0][5] != "True":
            return "sandwich does not hold"
        if not (_close(r_lam, opt(lam)) and _close(r_eps, opt(lam + eps)) and _close(w_lam, r_lam)):
            return f"sandwich values {rows[0][2:5]} != ({opt(lam + eps)!r}, {opt(lam)!r})"
        return None

    if command == "frostman":
        return check_frostman(phi, lam, D, info["total"], tables[main], opt(lam))

    return f"no reference for command {command!r}"


def check_cover(q, edges, D, phi, lam, rows, log_opt) -> str | None:
    """The cover is a prefix-free set of admissible words partitioning L^D, at optimal cost."""
    A = adjacency(q, edges)
    below = [np.ones(q)]
    for _ in range(D):
        below.append(A @ below[-1])  # below[m][i]: length-(m+1) words starting at i
    words = [tuple(int(s) for s in r[0].split("-")) for r in rows]
    covered = 0.0
    for w, (_, cost) in zip(words, rows):
        if not 1 <= len(w) <= D or any(A[a - 1, b - 1] == 0 for a, b in zip(w, w[1:])):
            return f"cover word {w} inadmissible or out of depth"
        if not _close(float(cost), math.exp(-lam * len(w) + sum(phi[s - 1] for s in w))):
            return f"cover word {w} has cost {cost}"
        covered += below[D - len(w)][w[-1] - 1]
    ordered = sorted(words)
    if any(b[: len(a)] == a for a, b in zip(ordered, ordered[1:])):
        return "cover words are not prefix-free"
    if covered != below[D - 1].sum():
        return f"cover spans {covered} of {below[D - 1].sum()} words"
    total = math.fsum(float(r[1]) for r in rows)
    return None if _close(total, math.exp(log_opt)) else f"cover cost {total} != {math.exp(log_opt)}"


def check_frostman(w, lam, D, total, rows, optimum) -> str | None:
    """Masses sum to the total, the total is the cover optimum, and every cap holds."""
    masses = [(tuple(int(s) for s in r[0].split("-")), float(r[1])) for r in rows]
    if any(len(word) != D for word, _ in masses):
        return "frostman leaves off depth D"
    if not _close(math.fsum(m for _, m in masses), total) or not _close(total, optimum):
        return f"frostman total {total!r}, masses {math.fsum(m for _, m in masses)!r}, optimum {optimum!r}"
    masses.sort()
    for n in range(1, D + 1):
        for word, group in itertools.groupby(masses, key=lambda wm: wm[0][:n]):
            m = math.fsum(x for _, x in group)
            cap = math.exp(-lam * sum(w[s - 1] for s in word))
            if m > cap * (1 + REL):
                return f"frostman mass {m!r} under {word} exceeds cap {cap!r}"
    return None


def validate_finite_state(sysd: dict) -> int:
    """Violations of the partition condition (each state's own control keeps it in Q)."""
    states = set(sysd["states"])
    bad = 0
    for x in sysd["states"]:
        y = sysd["transition"][x].get(sysd["values"][sysd["cell_of"][x] - 1])
        bad += y not in states
    return bad


def validate_affine(config: dict) -> int:
    """Cells whose control word drives the cell's image out of the interval, exactly."""
    sysd = config["system"]
    c = Fraction(sysd["contraction"])
    a, b = (Fraction(x) for x in sysd["interval"])
    pts = [a] + [Fraction(x) for x in sysd["cut_points"]] + [b]
    bad = 0
    for i, word in config["partition"]["control_words"].items():
        lo, hi = pts[int(i) - 1], pts[int(i)]
        for u in word:
            v = Fraction(sysd["control_values"][u])
            lo, hi = c * lo + v, c * hi + v
            if lo < a or hi > b:
                bad += 1
                break
    return bad
