"""Configuration-driven runs: one JSON config in, manifest plus CSV out.

A run executes exactly one task (validate | pressure | bowen-root | induced |
characterize | pp-pressure | bs-dim | frostman | sandwich | vp-check | scan)
against the system/partition/potentials described by the config.  All reals
in configs are decimal strings; CSV output is UTF-8 with header row and LF
line endings, and re-running a config byte-reproduces it.

Exit codes: 0 success, 2 config/schema errors, 3 resource-guard trips,
4 mathematical precondition failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from importlib import resources

from . import __version__
from .errors import ConfigError, GuardError, PreconditionError
from .symbolic import (
    MAX_GRID_POINTS,
    MAX_TREE_NODES,
    MAX_WORDS,
    ControlRange,
    PartitionSpec,
    derive_symbol_weights,
    zero_weights,
)
from .systems import (
    AffineIntervalSystem,
    FiniteStateSystem,
    compile_sft,
    itinerary_language,
    validate_invariant_partition,
)
from .capacity import bowen_root, capacity_pressure, pressure_difference
from .induced import characterization_scan, induced_sum
from .covers import (
    SubsetSpec,
    bs_dimension,
    cover_solution,
    frostman_measure,
    pp_pressure,
    sandwich_check,
)
from .measures import bernoulli_measure, markov_measure, parry_measure, vp_check

COMMANDS = (
    "validate", "pressure", "bowen-root", "induced", "characterize",
    "pp-pressure", "bs-dim", "frostman", "sandwich", "vp-check", "scan",
)


def bundled_config_path(name: str) -> str:
    """Filesystem path of a bundled example config (e.g. 'golden-mean.json')."""
    return str(resources.files("invpressure").joinpath("configs", name))


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: expected a decimal string, got {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse real {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite real, got {value!r}")
    return x


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse integer {value!r}") from None


def _fraction(value, where: str) -> Fraction:
    if not isinstance(value, (str, int)):
        raise ConfigError(f"{where}: expected an exact decimal string, got {value!r}")
    try:
        return Fraction(str(value))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse rational {value!r}") from None


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return block[key]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _word_str(word) -> str:
    return "-".join(str(s) for s in word)


class Run:
    """One parsed configuration, ready to execute."""

    def __init__(self, config: dict, force_guards: bool = False, threads: int = 1):
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        self.config = config
        self.threads = max(1, threads)
        # guard overrides from the config bind only behind the explicit flag
        guards = config.get("guards", {}) if force_guards else {}
        self.max_words = _int(guards.get("max_words", MAX_WORDS), "max_words")
        self.max_nodes = _int(guards.get("max_tree_nodes", MAX_TREE_NODES), "max_tree_nodes")
        self.seed = config.get("seed")
        self.crange = self._parse_range(config.get("control_range"))
        self.partition = self._parse_partition(_require(config, "partition", "config"))
        self.system_block = _require(config, "system", "config")
        self.task = _require(config, "task", "config")
        self.command = _require(self.task, "command", "task")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        self.system = self._parse_system(self.system_block)
        self.lang = None
        if self.command != "validate":
            self.lang = self._language()

    def _parse_range(self, block) -> ControlRange | None:
        if block is None:
            return None
        values = tuple(str(v) for v in _require(block, "values", "control_range"))
        pots = {}
        for name, table in block.get("potentials", {}).items():
            pots[name] = {str(u): _real(x, f"potential {name}/{u}") for u, x in table.items()}
        try:
            return ControlRange(values, pots)
        except PreconditionError as e:
            raise ConfigError(str(e)) from None

    def _parse_partition(self, block) -> PartitionSpec:
        tau = _int(_require(block, "tau", "partition"), "tau")
        words_block = _require(block, "control_words", "partition")
        words = {}
        for key, seq in words_block.items():
            words[_int(key, "control_words")] = tuple(str(u) for u in seq)
        try:
            return PartitionSpec(tau, words)
        except PreconditionError as e:
            raise ConfigError(str(e)) from None

    def _parse_system(self, block):
        kind = _require(block, "type", "system")
        if kind == "sft":
            edges = []
            for edge in _require(block, "transitions", "system"):
                if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                    raise ConfigError(f"transitions: expected a pair [i, j], got {edge!r}")
                edges.append(tuple(_int(s, "transitions") for s in edge))
            return ("sft", edges)
        if kind == "finite-state":
            states = tuple(str(s) for s in _require(block, "states", "system"))
            trans = {}
            for x, row in _require(block, "transition", "system").items():
                for u, y in row.items():
                    trans[(str(x), str(u))] = str(y)
            inv = tuple(str(s) for s in block.get("invariant_set", states))
            cell_of = _require(block, "cell_of", "system")
            cells = {str(x): _int(i, "cell_of") for x, i in cell_of.items()}
            return FiniteStateSystem(states, trans, inv, cells)
        if kind == "affine-interval":
            cvals = {
                str(u): _fraction(x, f"control value {u}")
                for u, x in _require(block, "control_values", "system").items()
            }
            a, b = _require(block, "interval", "system")
            cuts = tuple(_fraction(c, "cut point") for c in block.get("cut_points", []))
            try:
                return AffineIntervalSystem(
                    _fraction(_require(block, "contraction", "system"), "contraction"),
                    cvals,
                    (_fraction(a, "interval"), _fraction(b, "interval")),
                    cuts,
                )
            except PreconditionError as e:
                raise ConfigError(str(e)) from None
        raise ConfigError(f"unknown system type {kind!r}")

    def _language(self):
        kind, payload = (self.system if isinstance(self.system, tuple) else (None, None))
        if kind == "sft":
            return compile_sft(self.partition.symbols, payload, self.partition)
        if isinstance(self.system, FiniteStateSystem):
            return itinerary_language(self.system, self.partition)
        raise ConfigError(
            f"command {self.command!r} needs a word language; affine systems only support 'validate'"
        )

    def weights(self, key: str, default_zero: bool = False):
        name = self.task.get(key)
        if name is None:
            if default_zero:
                return zero_weights(self.partition.symbols, self.partition.tau)
            raise ConfigError(f"task: missing potential reference {key!r}")
        if self.crange is None:
            raise ConfigError("task references a potential but no control_range block exists")
        if name not in self.crange.potentials:
            raise ConfigError(f"unknown potential {name!r}")
        return derive_symbol_weights(self.crange, self.partition, name)

    def subset(self) -> SubsetSpec:
        block = self.task.get("subset")
        if block is None or block.get("variant", "all") == "all":
            return SubsetSpec.whole_space()
        if block.get("variant") == "cylinders":
            words = []
            for word in block.get("words", []):
                if not isinstance(word, (list, tuple)):
                    raise ConfigError(f"subset word: expected a list of symbols, got {word!r}")
                words.append(tuple(_int(s, "subset word") for s in word))
            return SubsetSpec.cylinders(words)
        raise ConfigError(f"unknown subset variant {block.get('variant')!r}")

    def task_int(self, key: str, default: int | None) -> int | None:
        value = self.task.get(key, default)
        return None if value is None else _int(value, key)

    def grid(self, key: str) -> list[float]:
        """Grid points; more than MAX_GRID_POINTS are refused before any is built."""
        block = _require(self.task, key, "task")
        too_many = GuardError(f"{key}: more than {MAX_GRID_POINTS} grid points")
        if isinstance(block, list):
            if len(block) > MAX_GRID_POINTS:
                raise too_many
            return [_real(x, key) for x in block]
        start = _real(_require(block, "start", key), key)
        stop = _real(_require(block, "stop", key), key)
        step = _real(_require(block, "step", key), key)
        if step <= 0:
            raise ConfigError(f"{key}: step must be positive")
        span = (stop - start) / step + 1e-9  # inf when the quotient overflows
        if span >= MAX_GRID_POINTS:
            raise too_many
        return [start + k * step for k in range(math.floor(span) + 1)]

    def _pmap(self, fn, items):
        if self.threads == 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(fn, items))

    # ------------------------------------------------------------------
    def execute(self) -> dict[str, tuple[list[str], list[list]]]:
        """Run the task; returns {csv name: (header, rows)} plus manifest extras."""
        self.info: dict = {}
        handler = getattr(self, "_cmd_" + self.command.replace("-", "_"))
        return handler()

    def _cmd_validate(self):
        if isinstance(self.system, tuple):
            raise ConfigError("'validate' needs a finite-state or affine-interval system block")
        report = validate_invariant_partition(self.system, self.partition)
        self.info["valid"] = report.valid
        rows = [[i, j, witness] for i, j, witness in report.violations]
        return {"validate": (["symbol", "step", "witness"], rows)}

    def _cmd_pressure(self):
        n_max = self.task_int("n_max", 120)
        tail = self.task_int("tail_window", 10)
        est = capacity_pressure(self.lang, self.weights("phi"), n_max, tail)
        self.info.update(
            limsup_estimate=est.limsup_estimate,
            liminf_estimate=est.liminf_estimate,
            oracle=est.oracle,
            tail_window=est.tail_window,
        )
        return {"pressure": (["n", "value"], [[n, _fmt(v)] for n, v in est.values])}

    def _cmd_bowen_root(self):
        tol = _real(self.task.get("tol", "1e-9"), "tol")
        cert = bowen_root(self.lang, self.weights("phi", default_zero=True), self.weights("psi"), tol)
        self.info["beta_hat"] = cert.beta_hat
        row = [
            _fmt(cert.beta_hat), _fmt(cert.residual), _fmt(cert.error_bound),
            _fmt(cert.bracket[0]), _fmt(cert.bracket[1]), cert.iterations,
        ]
        header = ["beta_hat", "residual", "error_bound", "bracket_lo", "bracket_hi", "iterations"]
        return {"bowen_root": (header, [row])}

    def _cmd_scan(self):
        w_phi = self.weights("phi", default_zero=True)
        w_psi = self.weights("psi")
        betas = self.grid("beta_grid")
        n_max = self.task_int("n_max", 120)
        vals = self._pmap(
            lambda b: pressure_difference(self.lang, w_phi, w_psi, b, n_max), betas
        )
        rows = [[_fmt(b), _fmt(v)] for b, v in zip(betas, vals)]
        return {"scan": (["beta", "phi_value"], rows)}

    def _cmd_induced(self):
        w_phi = self.weights("phi", default_zero=True)
        w_psi = self.weights("psi")
        ts = self.grid("T_grid")
        tau = self.partition.tau
        vals = self._pmap(
            lambda T: induced_sum(self.lang, w_phi, w_psi, T, max_cells=self.max_words), ts
        )
        rows = []
        for T, v in zip(ts, vals):
            if v == float("-inf"):
                rows.append([_fmt(T), "empty window", ""])
            else:
                rows.append([_fmt(T), _fmt(v), _fmt(v / (T * tau))])
        return {"induced": (["T", "log_sum", "normalized"], rows)}

    def _cmd_characterize(self):
        w_phi = self.weights("phi", default_zero=True)
        w_psi = self.weights("psi")
        T = _real(_require(self.task, "T", "task"), "T")
        betas = self.grid("beta_grid")
        n_cap = self.task_int("n_cap", None)
        results = characterization_scan(self.lang, w_phi, w_psi, betas, T, n_cap=n_cap)
        rows = [[_fmt(r.beta), r.verdict, _fmt(r.growth_rate)] for r in results]
        return {"characterize": (["beta", "verdict", "growth_rate"], rows)}

    def _cmd_pp_pressure(self):
        w = self.weights("phi")
        Z = self.subset()
        N = self.task_int("N", 1)
        D = self.task_int("D", 12)
        tol = _real(self.task.get("tol", "1e-9"), "tol")
        res = pp_pressure(self.lang, w, Z, N, D, tol)
        self.info["critical"] = res.value
        sol = cover_solution(self.lang, w, Z, res.value, N, D, "time", self.max_nodes)
        summary = [[_fmt(res.value), _fmt(res.value_below), _fmt(res.value_above), res.iterations]]
        cover_rows = [[_word_str(w_), _fmt(c)] for w_, c in zip(sol.words, sol.costs)]
        return {
            "pp_pressure": (["critical", "value_below", "value_above", "iterations"], summary),
            "cover_solution": (["word", "cost"], cover_rows),
        }

    def _cmd_bs_dim(self):
        w = self.weights("phi")
        Z = self.subset()
        D = self.task_int("D", 12)
        tol = _real(self.task.get("tol", "1e-6"), "tol")
        res = bs_dimension(self.lang, w, Z, tol, self.task_int("N", 1), D)
        self.info["dimension"] = res.value
        header = ["value", "residual", "error_bound", "jump_critical", "root_jump_gap"]
        row = [
            _fmt(res.value), _fmt(res.certificate.residual), _fmt(res.certificate.error_bound),
            _fmt(res.jump.critical), _fmt(res.root_jump_gap),
        ]
        return {"bs_dim": (header, [row])}

    def _cmd_frostman(self):
        w = self.weights("phi")
        Z = self.subset()
        lam = _real(_require(self.task, "lambda", "task"), "lambda")
        N = self.task_int("N", 1)
        D = self.task_int("D", 12)
        fw = frostman_measure(self.lang, w, Z, lam, N, D, self.max_nodes)
        self.info["total"] = fw.total
        rows = [[_word_str(word), _fmt(mass)] for word, mass in sorted(fw.masses.items())]
        return {"frostman": (["word", "mass"], rows)}

    def _cmd_sandwich(self):
        w = self.weights("phi")
        Z = self.subset()
        lam = _real(_require(self.task, "lambda", "task"), "lambda")
        eps = _real(_require(self.task, "epsilon", "task"), "epsilon")
        rep = sandwich_check(
            self.lang, w, Z, lam, eps, self.task_int("N", 1), self.task_int("D", 12)
        )
        self.info["holds"] = rep.holds
        header = ["lambda", "epsilon", "r_at_lam_plus_eps", "w_at_lam", "r_at_lam", "holds"]
        row = [
            _fmt(rep.lam), _fmt(rep.eps), _fmt(rep.r_at_lam_plus_eps),
            _fmt(rep.w_at_lam), _fmt(rep.r_at_lam), rep.holds,
        ]
        return {"sandwich": (header, [row])}

    def _cmd_vp_check(self):
        w = self.weights("phi")
        K = self.subset()
        D = self.task_int("D", 12)
        tol = _real(self.task.get("tol", "1e-6"), "tol")
        cands = []
        for blk in self.task.get("candidates", []):
            kind = _require(blk, "type", "candidate")
            name = blk.get("name", kind)
            if kind == "bernoulli":
                mu = bernoulli_measure(self.lang, [_real(p, "p") for p in _require(blk, "p", "candidate")])
            elif kind == "markov":
                mu = markov_measure(
                    self.lang,
                    [[_real(x, "P") for x in row] for row in _require(blk, "P", "candidate")],
                )
            elif kind == "parry":
                mu = parry_measure(self.lang)
            else:
                raise ConfigError(f"unknown candidate type {kind!r}")
            cands.append((name, mu))
        rep = vp_check(self.lang, w, K, cands, D, tol)
        self.info.update(dimension=rep.dimension, best=rep.best_name, best_value=rep.best_value)
        rows = [
            [r.name, _fmt(r.value), _fmt(r.gap), _fmt(r.slack), r.within_upper_bound]
            for r in rep.candidates
        ]
        return {"vp_check": (["candidate", "estimate", "gap", "slack", "within_upper_bound"], rows)}


def run(config: dict, out_dir: str, force_guards: bool = False, threads: int = 1) -> dict:
    """Execute one config and write manifest + CSV artifacts into out_dir."""
    started = time.time()
    r = Run(config, force_guards, threads)
    outputs = r.execute()
    os.makedirs(out_dir, exist_ok=True)
    prefix = r.config.get("output", {}).get("prefix", r.command.replace("-", "_"))
    written = []
    main_name = r.command.replace("-", "_")
    for name, (header, rows) in outputs.items():
        stem = prefix if name == main_name else f"{prefix}_{name}"
        path = os.path.join(out_dir, f"{stem}.csv")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
        written.append(os.path.basename(path))
    manifest = {
        "command": r.command,
        "config": r.config,
        "outputs": written,
        "info": getattr(r, "info", {}),
        "seed": r.seed,
        "version": __version__,
        "wall_time_s": time.time() - started,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="invpressure",
        description="Invariance-pressure invariants of quantized control systems.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="parallel grid evaluations")
    parser.add_argument(
        "--force-guards", action="store_true",
        help="apply the config's guard overrides instead of the built-in resource limits",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        manifest = run(config, args.out, args.force_guards, args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"guard tripped: {e}", file=sys.stderr)
        return 3
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 4
    print(json.dumps({k: manifest[k] for k in ("command", "outputs", "info")}, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
