"""Configuration-driven runs: one JSON config in, manifest plus CSV out.

A run executes exactly one task (validate | pressure | bowen-root | induced |
characterize | pp-pressure | bs-dim | frostman | sandwich | vp-check | scan)
against the system/partition/potentials described by the config.  All reals
in configs are decimal strings; CSV output is UTF-8 with header row and LF
line endings, and re-running a config byte-reproduces it.

Exit codes: 0 success, 2 config/schema errors or an unusable output path,
3 resource-guard trips, 4 mathematical precondition failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction
from importlib import resources

import numpy as np

from . import __version__
from .errors import ConfigError, GuardError, PreconditionError
from .symbolic import (
    MAX_DEPTH,
    MAX_EXPONENT,
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
#: The longest file name a run writes, after its prefix: pp-pressure's cover CSV while in flight.
_LONGEST_SUFFIX = "_cover_solution.csv.tmp"
#: Bytes in one file name on common file systems (ext4, XFS, btrfs).
_NAME_MAX = 255


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
    except OverflowError:
        raise ConfigError(f"{where}: a {len(str(value))}-digit integer overflows a float") from None
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
    """An exact rational; its decimal exponent is checked first, because
    ``Fraction``'s parse time grows faster than linearly with it."""
    if not isinstance(value, (str, int)):
        raise ConfigError(f"{where}: expected an exact decimal string, got {value!r}")
    text = str(value)
    _, e, exponent = text.lower().partition("e")
    try:
        if not e or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # ZeroDivisionError: "1/0"
        raise ConfigError(f"{where}: cannot parse rational {value!r}") from None
    raise ConfigError(f"{where}: exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")


def _typed(value, kind: type | None, where: str):
    """``value``, if it has the JSON type ``kind`` (dict: an object, list: an array)."""
    if kind is dict and not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    if kind is list and not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _require(block: dict, key: str, where: str, kind: type | None = None):
    if key not in block:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return _typed(block[key], kind, f"{where}.{key}")


def _optional(block: dict, key: str, where: str, kind: type, default):
    return _typed(block[key], kind, f"{where}.{key}") if key in block else default


def _pair(value, where: str):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where}: expected a pair [a, b], got {value!r}")
    return value


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


class Run:
    """One parsed configuration, ready to execute."""

    def __init__(self, config: dict, force_guards: bool = False):
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        self.config = config
        # guard overrides from the config bind only behind the explicit flag
        guards = _optional(config, "guards", "config", dict, {}) if force_guards else {}
        self.max_words = _int(guards.get("max_words", MAX_WORDS), "max_words")
        self.max_nodes = _int(guards.get("max_tree_nodes", MAX_TREE_NODES), "max_tree_nodes")
        self.seed = config.get("seed")
        self.crange = self._parse_range(_optional(config, "control_range", "config", dict, None))
        self.partition = self._parse_partition(_require(config, "partition", "config", dict))
        self.system_block = _require(config, "system", "config", dict)
        self.task = _require(config, "task", "config", dict)
        self.command = _require(self.task, "command", "task")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        output = _optional(config, "output", "config", dict, {})
        self.prefix = output.get("prefix", self.command.replace("-", "_"))
        if (
            not isinstance(self.prefix, str)
            or self.prefix in ("", ".", "..")
            or any(c in self.prefix for c in "/\\\0")
            or any("\ud800" <= c <= "\udfff" for c in self.prefix)  # no UTF-8 encoding
        ):
            raise ConfigError(f"output.prefix: expected a file name, got {self.prefix!r}")
        size = len(self.prefix.encode("utf-8")) + len(_LONGEST_SUFFIX)
        if size > _NAME_MAX:
            raise ConfigError(
                f"output.prefix: {self.prefix[:20]!r}... makes {size}-byte file names "
                f"(at most {_NAME_MAX})"
            )
        self.system = self._parse_system(self.system_block)
        self.lang = None
        if self.command != "validate":
            self.lang = self._language()

    def _parse_range(self, block) -> ControlRange | None:
        if block is None:
            return None
        values = tuple(str(v) for v in _require(block, "values", "control_range", list))
        pots = {}
        for name, table in _optional(block, "potentials", "control_range", dict, {}).items():
            table = _typed(table, dict, f"potential {name}")
            pots[name] = {str(u): _real(x, f"potential {name}/{u}") for u, x in table.items()}
        try:
            return ControlRange(values, pots)
        except PreconditionError as e:
            raise ConfigError(str(e)) from None

    def _parse_partition(self, block) -> PartitionSpec:
        tau = _int(_require(block, "tau", "partition"), "tau")
        words = {}
        for key, seq in _require(block, "control_words", "partition", dict).items():
            seq = _typed(seq, list, f"control word {key}")
            words[_int(key, "control_words")] = tuple(str(u) for u in seq)
        try:
            return PartitionSpec(tau, words)
        except PreconditionError as e:
            raise ConfigError(str(e)) from None

    def _parse_system(self, block):
        kind = _require(block, "type", "system")
        if kind == "sft":
            raw = _require(block, "transitions", "system", list)
            # the common form, [int, int] pairs, in one pass; anything else entry by entry
            if all(type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
                   for e in raw):
                try:
                    ends = np.fromiter(itertools.chain.from_iterable(raw), np.int64, 2 * len(raw))
                except OverflowError:  # an end past int64, which the language refuses
                    return ("sft", raw)
                return ("sft", ends.reshape(-1, 2))
            edges = []
            for edge in raw:
                a, b = _pair(edge, "transitions")
                edges.append((_int(a, "transitions"), _int(b, "transitions")))
            return ("sft", edges)
        if kind == "finite-state":
            # one conversion per entry: JSON keys, and most names, are str already
            states = tuple(
                s if type(s) is str else str(s) for s in _require(block, "states", "system", list)
            )
            trans = {}
            for x, row in _require(block, "transition", "system", dict).items():
                x = x if type(x) is str else str(x)
                for u, y in _typed(row, dict, f"transition row {x}").items():
                    trans[(x, u if type(u) is str else str(u))] = y if type(y) is str else str(y)
            inv = _optional(block, "invariant_set", "system", list, None)
            inv = states if inv is None else tuple(s if type(s) is str else str(s) for s in inv)
            cells = {
                x if type(x) is str else str(x): i if type(i) is int else _int(i, "cell_of")
                for x, i in _require(block, "cell_of", "system", dict).items()
            }
            return FiniteStateSystem(states, trans, inv, cells)
        if kind == "affine-interval":
            cvals = {
                str(u): _fraction(x, f"control value {u}")
                for u, x in _require(block, "control_values", "system", dict).items()
            }
            a, b = _pair(_require(block, "interval", "system"), "interval")
            cuts = _optional(block, "cut_points", "system", list, [])
            cuts = tuple(_fraction(c, "cut point") for c in cuts)
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
        if not isinstance(name, str):
            raise ConfigError(f"task.{key}: expected a potential name, got {name!r}")
        if self.crange is None:
            raise ConfigError("task references a potential but no control_range block exists")
        if name not in self.crange.potentials:
            raise ConfigError(f"unknown potential {name!r}")
        return derive_symbol_weights(self.crange, self.partition, name)

    def subset(self) -> SubsetSpec:
        block = _optional(self.task, "subset", "task", dict, None)
        if block is None or block.get("variant", "all") == "all":
            return SubsetSpec.whole_space()
        if block.get("variant") == "cylinders":
            words = []
            for word in _optional(block, "words", "subset", list, []):
                word = _typed(word, list, "subset word")
                words.append(tuple(_int(s, "subset word") for s in word))
            return SubsetSpec.cylinders(words)
        raise ConfigError(f"unknown subset variant {block.get('variant')!r}")

    def cover_task(self) -> tuple:
        """The cover commands' shared keys, read in this order: the weight, the subset, N and D."""
        return self.weights("phi"), self.subset(), self.task_int("N", 1), self.task_depth("D", 12)

    def word_labels(self, words) -> list[str]:
        """Each word's symbols joined by '-', through one str per symbol of the run."""
        label = {s: str(s) for s in self.lang.symbols}.__getitem__
        return ["-".join(map(label, w)) for w in words]

    def task_int(self, key: str, default: int) -> int:
        """A task integer, ``default`` when the key is absent (a JSON null is refused)."""
        return _int(self.task[key], key) if key in self.task else default

    def task_depth(self, key: str, default: int) -> int:
        """A depth-like task integer; one above MAX_DEPTH is refused before anything is built."""
        value = self.task_int(key, default)
        if value > MAX_DEPTH:
            raise GuardError(f"{key}: {value} exceeds the depth limit {MAX_DEPTH}")
        return value

    def grid(self, key: str) -> list[float]:
        """Grid points; more than MAX_GRID_POINTS are refused before any is built."""
        block = _require(self.task, key, "task")
        if not isinstance(block, (list, dict)):
            raise ConfigError(f"task.{key}: expected a list or an object, got {block!r}")
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
        n_max = self.task_depth("n_max", 120)
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
        rows = [[_fmt(b), _fmt(pressure_difference(self.lang, w_phi, w_psi, b))] for b in betas]
        return {"scan": (["beta", "phi_value"], rows)}

    def _cmd_induced(self):
        w_phi = self.weights("phi", default_zero=True)
        w_psi = self.weights("psi")
        ts = self.grid("T_grid")
        tau = self.partition.tau
        rows = []
        for T in ts:
            v = induced_sum(self.lang, w_phi, w_psi, T, max_cells=self.max_words)
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
        results = characterization_scan(self.lang, w_phi, w_psi, betas, T)
        rows = [[_fmt(r.beta), r.verdict] for r in results]
        return {"characterize": (["beta", "verdict"], rows)}

    def _cmd_pp_pressure(self):
        w, Z, N, D = self.cover_task()
        tol = _real(self.task.get("tol", "1e-9"), "tol")
        res = pp_pressure(self.lang, w, Z, N, D, tol)
        self.info["critical"] = crit = res.critical
        sol = cover_solution(self.lang, w, Z, crit, N, D, self.max_nodes)
        summary = [[_fmt(crit), _fmt(res.value_below), _fmt(res.value_above), res.iterations]]
        cover_rows = [[label, repr(c)] for label, c in zip(self.word_labels(sol.words), sol.costs)]
        return {
            "pp_pressure": (["critical", "value_below", "value_above", "iterations"], summary),
            "cover_solution": (["word", "cost"], cover_rows),
        }

    def _cmd_bs_dim(self):
        w, Z, N, D = self.cover_task()
        tol = _real(self.task.get("tol", "1e-6"), "tol")
        res = bs_dimension(self.lang, w, Z, tol, N, D)
        self.info["dimension"] = res.value
        header = ["value", "residual", "error_bound", "jump_critical", "root_jump_gap"]
        row = [
            _fmt(res.value), _fmt(res.certificate.residual), _fmt(res.certificate.error_bound),
            _fmt(res.jump.critical), _fmt(res.root_jump_gap),
        ]
        return {"bs_dim": (header, [row])}

    def _cmd_frostman(self):
        w, Z, N, D = self.cover_task()
        lam = _real(_require(self.task, "lambda", "task"), "lambda")
        fw = frostman_measure(self.lang, w, Z, lam, N, D, self.max_nodes)
        self.info["total"] = fw.total
        leaves = sorted(fw.masses.items())
        labels = self.word_labels(word for word, _ in leaves)
        rows = [[label, repr(mass)] for label, (_, mass) in zip(labels, leaves)]
        return {"frostman": (["word", "mass"], rows)}

    def _cmd_sandwich(self):
        w, Z, N, D = self.cover_task()
        lam = _real(_require(self.task, "lambda", "task"), "lambda")
        eps = _real(_require(self.task, "epsilon", "task"), "epsilon")
        rep = sandwich_check(self.lang, w, Z, lam, eps, N, D)
        self.info["holds"] = rep.holds
        header = ["lambda", "epsilon", "r_at_lam_plus_eps", "w_at_lam", "r_at_lam", "holds"]
        row = [
            _fmt(rep.lam), _fmt(rep.eps), _fmt(rep.r_at_lam_plus_eps),
            _fmt(rep.w_at_lam), _fmt(rep.r_at_lam), rep.holds,
        ]
        return {"sandwich": (header, [row])}

    def _cmd_vp_check(self):
        w, K, N, D = self.cover_task()
        tol = _real(self.task.get("tol", "1e-6"), "tol")
        cands = []
        for blk in _optional(self.task, "candidates", "task", list, []):
            kind = _require(_typed(blk, dict, "candidate"), "type", "candidate")
            name = blk.get("name", kind)
            if kind == "bernoulli":
                probs = _require(blk, "p", "candidate", list)
                mu = bernoulli_measure(self.lang, [_real(p, "p") for p in probs])
            elif kind == "markov":
                q = len(self.lang.symbols)
                P = _require(blk, "P", "candidate", list)
                P = [[_real(x, "P") for x in _typed(row, list, "P row")] for row in P]
                if len(P) != q or any(len(row) != q for row in P):
                    raise ConfigError(f"candidate.P: expected {q} rows of {q} reals")
                mu = markov_measure(self.lang, P)
            elif kind == "parry":
                mu = parry_measure(self.lang)
            else:
                raise ConfigError(f"unknown candidate type {kind!r}")
            cands.append((name, mu))
        rep = vp_check(self.lang, w, K, cands, D, tol, N=N, max_nodes=self.max_nodes)
        self.info.update(dimension=rep.dimension, best=rep.best_name, best_value=rep.best_value)
        rows = [
            [r.name, _fmt(r.value), _fmt(r.gap), _fmt(r.slack), r.within_upper_bound]
            for r in rep.candidates
        ]
        return {"vp_check": (["candidate", "estimate", "gap", "slack", "within_upper_bound"], rows)}


def _write_artifact(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``path.tmp``, so no reader sees a torn file.

    The old file is unlinked before the rename, not renamed over: on ext4
    (and other file systems with delayed allocation) replacing an existing
    file by rename or truncation makes the kernel write the new data out at
    once, which costs a disk flush per artifact when a run rewrites an
    earlier run's directory.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.rename(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:  # never made, or not a file
            pass
        raise


# perfbench/run.py and perfbench/selftest.py pass threads=1
def run(config: dict, out_dir: str, force_guards: bool = False, threads: int = 1) -> dict:
    """Execute one config and write manifest + CSV artifacts into out_dir.

    Every run is single-threaded; ``threads`` is accepted for callers that
    still pass it and has no effect.
    """
    started = time.time()
    r = Run(config, force_guards)
    outputs = r.execute()
    os.makedirs(out_dir, exist_ok=True)
    written = []
    main_name = r.command.replace("-", "_")
    for name, (header, rows) in outputs.items():
        stem = r.prefix if name == main_name else f"{r.prefix}_{name}"
        path = os.path.join(out_dir, f"{stem}.csv")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write_artifact(path, buf.getvalue())
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
    # one compact line: json.dumps runs the C encoder, json.dump and indent never do
    _write_artifact(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, sort_keys=True, default=str) + "\n",
    )
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="invpressure",
        description="Invariance-pressure invariants of quantized control systems.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--force-guards", action="store_true",
        help="apply the config's guard overrides instead of the built-in resource limits",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON, UTF-8 or an over-long integer
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        manifest = run(config, args.out, args.force_guards)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"guard tripped: {e}", file=sys.stderr)
        return 3
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 4
    except OSError as e:  # the task does no I/O: this is from writing the output
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    print(json.dumps({k: manifest[k] for k in ("command", "outputs", "info")}, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
