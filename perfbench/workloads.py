"""Seeded job lists for the three benchmark workloads.

A job is one JSON run config for ``invpressure.cli.run`` plus the instance
data its reference check needs.  The composition of every workload (which
commands, at which sizes, how many of each) is fixed, and so are the shapes
of its relations and finite-state systems: they are drawn once from a fixed
stream per workload, because the cost of a job follows the shape (unit
counts, transients, |L^D|, spectral gaps) far more than the numbers on it.
The seed draws everything else: potentials, scaling weights, beta grids,
lambda values and the affine systems.  So the seed changes the inputs but
hardly the amount of work, and a run-to-run spread measures the host, not
the draw.

Scaling potentials (psi, and every dimension weight) are stratified over
[0.6, 1.6] for the same reason.  They are decimal strings with four digits
whose value in units of 1e-4 is 1 mod 16.  A sum of k of them is
then k mod 16 in those units, so with values of at least 0.6 no admissible
word can land exactly on an integer budget T in {3, 6}.  The induced sums
therefore have no float ties at the budget and an exact integer reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

PSI_UNITS = 10_000  # scaling potentials are multiples of 1e-4
PSI_LO, PSI_HI = 0.6, 1.6
WORKLOADS = ("transfer", "cover", "itinerary")


@dataclass
class Job:
    name: str
    config: dict
    inst: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.config["task"]["command"]


# ---------------------------------------------------------------------------
# potentials and relations


def phi_table(rng: random.Random, q: int, lo: float = -1.0, hi: float = 1.0) -> list[str]:
    return [f"{rng.uniform(lo, hi):.4f}" for _ in range(q)]


def psi_table(rng: random.Random, q: int) -> list[str]:
    """Stratified positive weights in [PSI_LO, PSI_HI], each 1 mod 16 in 1e-4 units."""
    lo, hi = int(PSI_LO * PSI_UNITS), int(PSI_HI * PSI_UNITS)
    units = []
    for k in range(q):
        a = lo + (hi - lo) * k // q
        b = lo + (hi - lo) * (k + 1) // q
        u = rng.randrange(a, b)
        u += (1 - u) % 16
        units.append(u)
    rng.shuffle(units)
    return [f"{u // PSI_UNITS}.{u % PSI_UNITS:04d}" for u in units]


def irreducible_relation(rng: random.Random, q: int, density: float, offset: int = 0) -> set:
    """The cycle 1->2->..->q->1 plus random edges up to round(density*q^2) edges."""
    syms = range(offset + 1, offset + q + 1)
    edges = {(i, offset + (i - offset) % q + 1) for i in syms}
    target = max(q + 1, round(density * q * q)) if q > 1 else 1
    others = sorted((i, j) for i in syms for j in syms if (i, j) not in edges)
    edges |= set(rng.sample(others, min(len(others), target - len(edges))))
    return edges


def reducible_relation(rng: random.Random, q: int) -> set:
    """A dense block on 1..q/2 feeding, by one edge, a plain cycle on the rest.

    With weights of at least 0 upstream and at most 0 downstream, the upstream
    block has the larger spectral radius, which is the case where the power
    iteration's quotient brackets never meet.
    """
    h = q // 2
    edges = irreducible_relation(rng, h, 0.6)
    edges |= {(i, i % (q - h) + h + 1) for i in range(h + 1, q + 1)}
    edges.add((rng.randint(1, h), rng.randint(h + 1, q)))
    return edges


def sparse_relation(rng: random.Random, q: int, taken: list) -> set:
    """Cycle plus at most one extra edge per symbol, with 20 <= |L^12| <= 250."""
    syms = range(1, q + 1)
    for _ in range(10_000):
        edges = {(i, i % q + 1) for i in syms}
        for i in syms:
            if rng.random() < 0.6:
                edges.add((i, rng.randint(1, q)))
        if edges not in taken and 20 <= word_count(q, edges, 12) <= 250:
            taken.append(edges)
            return edges
    raise ValueError(f"no sparse relation on {q} symbols meets the size window")


GOLDEN_MEAN = {(1, 1), (1, 2), (2, 1)}


def adjacency(q: int, edges) -> np.ndarray:
    A = np.zeros((q, q))
    for i, j in edges:
        A[i - 1, j - 1] = 1.0
    return A


def word_count(q: int, edges, n: int) -> int:
    A = adjacency(q, edges).astype(object)
    v = np.ones(q, dtype=object)
    for _ in range(n - 1):
        v = A.dot(v)
    return int(v.sum())


def deepest(q: int, edges, d_lo: int, d_hi: int, cap: int) -> int:
    """Largest D in [d_lo, d_hi] with |L^D| <= cap (d_lo if none)."""
    best = d_lo
    for D in range(d_lo, d_hi + 1):
        if word_count(q, edges, D) <= cap:
            best = D
    return best


# ---------------------------------------------------------------------------
# config builders


def sft_config(q: int, edges, tables: dict[str, list[str]], task: dict) -> dict:
    values = [f"u{i}" for i in range(1, q + 1)]
    return {
        "control_range": {
            "values": values,
            "potentials": {name: dict(zip(values, t)) for name, t in tables.items()},
        },
        "partition": {"tau": 1, "control_words": {str(i): [values[i - 1]] for i in range(1, q + 1)}},
        "system": {"type": "sft", "transitions": [list(e) for e in sorted(edges)]},
        "task": task,
    }


def sft_job(name: str, q: int, edges, tables: dict, task: dict) -> Job:
    inst = {"kind": "sft", "q": q, "edges": sorted(edges), "tables": tables}
    return Job(name, sft_config(q, edges, tables, task), inst)


def finite_state_system(rng: random.Random, n: int, cells: int = 8) -> dict:
    """n states spread over the cells; each state's own control stays inside Q."""
    values = [f"u{i}" for i in range(1, cells + 1)]
    states = [f"x{k}" for k in range(n)]
    cell_of = {x: k % cells + 1 for k, x in enumerate(states)}
    rng.shuffle(states)
    transition = {}
    for x in states:
        own, other = values[cell_of[x] - 1], rng.choice(values)
        transition[x] = {other: rng.choice(states), own: rng.choice(states)}
    return {"values": values, "states": states, "transition": transition, "cell_of": cell_of}


def itinerary_config(sysd: dict, tables: dict[str, list[str]], task: dict) -> dict:
    values = sysd["values"]
    return {
        "control_range": {
            "values": values,
            "potentials": {name: dict(zip(values, t)) for name, t in tables.items()},
        },
        "partition": {
            "tau": 1,
            "control_words": {str(i): [values[i - 1]] for i in range(1, len(values) + 1)},
        },
        "system": {
            "type": "finite-state",
            "states": sysd["states"],
            "transition": sysd["transition"],
            "cell_of": sysd["cell_of"],
        },
        "task": task,
    }


def affine_config(rng: random.Random, cells: int, tau: int) -> dict:
    """Affine interval system x -> x/c + u on [0, 1] with equal cells.

    Control values are drawn so that most partitions are invariant and some
    are not, so ``validate`` reports both outcomes.
    """
    c = rng.choice([2, 3, 4])
    cuts = [f"{k}/{cells}" for k in range(1, cells)]
    values = [f"v{k}" for k in range(1, 2 * cells + 1)]
    control_values = {}
    for k, v in enumerate(values):
        num = rng.randint(0, 4 * cells * c)
        control_values[v] = f"{num}/{4 * cells * c}" if rng.random() < 0.9 else "1"
    words = {str(i): [rng.choice(values) for _ in range(tau)] for i in range(1, cells + 1)}
    return {
        "control_range": {"values": values, "potentials": {"zero": {v: "0.0" for v in values}}},
        "partition": {"tau": tau, "control_words": words},
        "system": {
            "type": "affine-interval",
            "contraction": f"1/{c}",
            "control_values": control_values,
            "interval": ["0", "1"],
            "cut_points": cuts,
        },
        "task": {"command": "validate"},
    }


def beta_grid(center: float, half_width: float, points: int) -> dict:
    step = 2 * half_width / (points - 1)
    return {"start": f"{center - half_width:.6f}", "stop": f"{center + half_width + 1e-9:.6f}",
            "step": f"{step:.6f}"}


# ---------------------------------------------------------------------------
# workloads


def transfer(seed: int) -> list[Job]:
    """Capacity and induced layers on random transition relations.

    Per q on the ladder: how many instances, and which commands each runs.
    ``induced`` at T=6 stays on q <= 8 and ``characterize`` on q <= 32,
    where single jobs stay under about half a second.
    """
    rng, shape = random.Random(f"transfer/{seed}"), random.Random("transfer")
    plan = {
        2: (6, ("pressure", "bowen-root", "scan", "characterize:3", "characterize:6",
                "induced:3", "induced:6")),
        8: (8, ("pressure", "bowen-root", "scan", "characterize:3", "characterize:6",
                "induced:3", "induced:6")),
        32: (2, ("pressure", "bowen-root", "scan", "characterize:3", "induced:3")),
        128: (1, ("pressure", "bowen-root", "scan")),
    }
    jobs = []
    for q, (count, commands) in plan.items():
        for k in range(count):
            edges = irreducible_relation(shape, q, 0.5)
            tables = {"phi": phi_table(rng, q), "psi": psi_table(rng, q)}
            # log(mean out-degree)/mean(psi) estimates the root to within about 2
            center = np.log(len(edges) / q) / (PSI_LO + PSI_HI) * 2 + rng.uniform(-0.5, 0.5)
            for spec in commands:
                command, _, t = spec.partition(":")
                task = {"command": command}
                if command == "pressure":
                    task.update(phi="phi", n_max=120)
                elif command == "bowen-root":
                    task.update(phi="phi", psi="psi", tol="1e-9")
                elif command == "scan":
                    task.update(phi="phi", psi="psi", beta_grid=beta_grid(center, 2.0, 21))
                elif command == "characterize":
                    task.update(phi="phi", psi="psi", T=t, beta_grid=beta_grid(center, 4.0, 21))
                else:
                    task.update(phi="phi", psi="psi", T_grid=[t])
                jobs.append(sft_job(f"transfer/{spec}/q{q}/{k}", q, edges, tables, task))
    # A reducible relation enters only through pressure: when the block upstream
    # of the joining edge dominates, the oracle's power iteration runs to its cap.
    edges = reducible_relation(shape, 8)
    tables = {"phi": phi_table(rng, 4, 0.0, 1.0) + phi_table(rng, 4, -1.0, 0.0)}
    task = {"command": "pressure", "phi": "phi", "n_max": 120}
    jobs.append(sft_job("transfer/pressure-reducible/q8", 8, edges, tables, task))
    return jobs


def cover(seed: int) -> list[Job]:
    """Covers, symbolic-tree and measures layers on slowly growing relations.

    Tree-materializing commands take the deepest D in 12..20 whose |L^D|
    stays under the job's cap: most jobs are small, a few are large and form
    the tail that job_p90_s reads.
    """
    rng, shape = random.Random(f"cover/{seed}"), random.Random("cover")
    # on q = 2 the golden mean is the one such relation (up to relabelling)
    instances, taken = [("golden", 2, GOLDEN_MEAN)], [GOLDEN_MEAN]
    for q in (4, 8):
        for k in range(3):
            instances.append((f"sparse{q}.{k}", q, sparse_relation(shape, q, taken)))
    jobs = []

    def add(label: str, q: int, edges, command: str, task: dict, cap: int | None = None):
        tables = {"phi": phi_table(rng, q), "w": psi_table(rng, q)}
        if cap is not None:
            task["D"] = deepest(q, edges, 12, 20, cap)
        task["command"] = command
        jobs.append(sft_job(f"cover/{command}/{label}/D{task['D']}", q, edges, tables, task))

    # the repeated D=12 jobs (fresh weights each) put job_p90_s on a plateau of alike jobs
    bs_depths = {"golden": (12, 24, 48), "sparse4.0": (12, 24), "sparse4.1": (12, 12),
                 "sparse4.2": (12, 12), "sparse8.0": (12,), "sparse8.1": (12,)}
    parry = [{"type": "parry", "name": "parry"}]
    for label, q, edges in instances:
        for D in bs_depths.get(label, ()):
            add(label, q, edges, "bs-dim", {"phi": "w", "D": D})
    for rep in range(5):
        for label, q, edges in instances:
            if rep < 3:
                add(label, q, edges, "pp-pressure", {"phi": "phi"}, cap=200)
            if rep < 4:
                add(label, q, edges, "frostman",
                    {"phi": "w", "lambda": f"{rng.uniform(0.2, 0.8):.4f}"}, cap=500)
            add(label, q, edges, "sandwich",
                {"phi": "w", "lambda": f"{rng.uniform(0.2, 0.8):.4f}", "epsilon": "0.05"},
                cap=800)
    for label, q, edges in (instances[0], instances[1], instances[4]):
        add(label, q, edges, "vp-check", {"phi": "w", "candidates": parry}, cap=300)
    for label, q, edges in instances[::3]:
        add(label, q, edges, "pp-pressure", {"phi": "phi"}, cap=1500)
        add(label, q, edges, "frostman", {"phi": "w", "lambda": "0.5"}, cap=2500)
    add("golden", 2, GOLDEN_MEAN, "vp-check", {"phi": "w", "candidates": parry}, cap=800)
    return jobs


def itinerary(seed: int) -> list[Job]:
    """Systems layer plus the frozenset-unit presentation of every solver.

    Finite-state systems of 100 to 1000 states over 8 cells; affine interval
    systems for ``validate``.  ``bs-dim`` stays at 100 states, where one job
    takes under a second.  ``characterize`` is left out: on these languages
    its verdict at a finite horizon can fall on the wrong side of the root
    (the heaviest word classes need more than n_cap levels to give way to the
    best cycle), so its reference check would fail on some seeds.
    """
    rng, shape = random.Random(f"itinerary/{seed}"), random.Random("itinerary")
    jobs = []
    sizes = (100, 300, 1000)
    for k in range(14):
        n = sizes[k % 3]
        sysd = finite_state_system(shape, n)
        tables = {"phi": phi_table(rng, 8), "psi": psi_table(rng, 8), "w": psi_table(rng, 8)}
        inst = {"kind": "itinerary", "system": sysd, "tables": tables}
        tasks = [
            {"command": "validate"},
            {"command": "pressure", "phi": "phi", "n_max": 120},
            {"command": "bowen-root", "phi": "phi", "psi": "psi", "tol": "1e-9"},
            {"command": "induced", "phi": "phi", "psi": "psi", "T_grid": ["3"]},
            {"command": "induced", "phi": "phi", "psi": "psi", "T_grid": ["6"]},
            {"command": "pressure", "phi": "psi", "n_max": 60},
        ]
        if n == 100 and k < 6:
            tasks.append({"command": "bs-dim", "phi": "w", "D": 12})
        for task in tasks:
            name = f"itinerary/{task['command']}/n{n}/{k}"
            jobs.append(Job(name, itinerary_config(sysd, tables, task), inst))
    for k in range(16):
        cfg = affine_config(rng, cells=rng.choice([2, 3, 4]), tau=rng.choice([1, 2]))
        jobs.append(Job(f"itinerary/validate-affine/{k}", cfg, {"kind": "affine"}))
    return jobs


GENERATORS = {"transfer": transfer, "cover": cover, "itinerary": itinerary}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)


def smoke() -> list[Job]:
    """One tiny job per command, on the golden mean and a 12-state system."""
    rng = random.Random("smoke")
    tables = {"phi": ["0.3000", "-0.2000"], "w": ["1.0001", "1.5009"], "psi": ["1.0001", "1.5009"]}
    g = lambda command, **task: sft_job(
        f"smoke/{command}", 2, GOLDEN_MEAN, tables, dict(command=command, **task))
    jobs = [
        g("pressure", phi="phi", n_max=40),
        g("bowen-root", phi="phi", psi="psi", tol="1e-9"),
        g("scan", phi="phi", psi="psi", beta_grid=beta_grid(0.5, 1.0, 5)),
        g("characterize", phi="phi", psi="psi", T="3", beta_grid=beta_grid(0.5, 2.0, 9)),
        g("induced", phi="phi", psi="psi", T_grid=["3"]),
        g("pp-pressure", phi="phi", D=8),
        g("bs-dim", phi="w", D=8),
        g("frostman", phi="w", D=8, **{"lambda": "0.5"}),
        g("sandwich", phi="w", D=8, epsilon="0.05", **{"lambda": "0.5"}),
        g("vp-check", phi="w", D=8, candidates=[{"type": "parry", "name": "parry"}]),
    ]
    sysd = finite_state_system(rng, 12, cells=3)
    it_tables = {"phi": phi_table(rng, 3), "psi": psi_table(rng, 3)}
    inst = {"kind": "itinerary", "system": sysd, "tables": it_tables}
    jobs.append(Job("smoke/validate", itinerary_config(sysd, it_tables, {"command": "validate"}), inst))
    jobs.append(Job("smoke/validate-affine", affine_config(rng, 2, 1), {"kind": "affine"}))
    return jobs
