"""Mutated bundled configs through the CLI: every run ends in a documented exit.

Each example takes one bundled config, optionally swaps in a task for another
command, and applies a few mutations: a wrong JSON type or a junk value at
any key, a deleted key, an out-of-range size, a bad output prefix, a ragged
Markov matrix.  The run goes through ``cli.main`` in-process and must exit
with 0, 2, 3 or 4, with at most one line on stderr and in under 2 s.  Sizes
are either small or past their limit, so a big one is only ever refused.
"""

import contextlib
import io
import json
import os
import re
import signal
import tempfile
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from invpressure.cli import COMMANDS, bundled_config_path, main
from invpressure.symbolic import MAX_DEPTH, MAX_GRID_POINTS

BASES = ("golden-mean.json", "full-shift-3.json", "affine-doubling.json", "finite-state-ring.json")
RUN_LIMIT_S = 2.0

#: junk strings: non-finite, past a float, past the exponent cap, over long
STRINGS = [
    "nan", "1/0", "inf", "1e400", "1e1001", "0/0", "-inf", "-1e400", "1e-1001", "1e-1000000000",
    "-1", "0", "", " ", "abc", "1_000", "0x10", "9" * 400, "9" * 5000, "0." + "1" * 5000,
    "1e" + "9" * 30,
]
NUMBERS = [10**400, -(10**400), 2**63, -1, 0, 1.5, float("nan"), float("inf"), -float("inf")]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.sampled_from(NUMBERS),
    st.sampled_from(STRINGS), st.text(max_size=4),
)
JUNK = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
)
#: depths and counts: small enough to build, or past the limit and refused
SIZES = st.one_of(
    st.integers(1, 6),
    st.sampled_from([MAX_DEPTH + 1, 10**6, 10**400, "1001", 0, -5]),
)
GRIDS = st.one_of(
    st.lists(st.sampled_from(["0", "0.5", "1", "2", "-1"]), min_size=1, max_size=4),
    st.builds(lambda: ["0"] * (MAX_GRID_POINTS + 1)),
    st.fixed_dictionaries({
        "start": st.sampled_from(["0", "-1"]),
        "stop": st.sampled_from(["1", "2", "1e300"]),
        "step": st.sampled_from(["0.5", "1e-9", "1e-300", "0", "-1"]),
    }),
)
SIZE_KEYS = ["n_max", "tail_window", "D", "N"]
GRID_KEYS = ["T_grid", "beta_grid"]
#: ("x",) is dumped as a JSON list; a tuple, so no later mutation edits the shared value
PREFIXES = st.sampled_from(["", ".", "..", "../up", "a/b", "a\\b", "a\0b", 7, None, ("x",), "ok.1"])
PROBS = st.sampled_from(["0.5", "0.500009", "0.5000000001", "1", "0", "-0.5", "nan"])
CANDIDATE = st.one_of(
    st.fixed_dictionaries({"type": st.just("parry")}),
    st.fixed_dictionaries({"type": st.just("bernoulli"), "p": st.lists(PROBS, max_size=4)}),
    st.fixed_dictionaries({
        "type": st.just("markov"),
        "P": st.lists(st.lists(PROBS, max_size=4), max_size=4),  # ragged and non-square too
    }),
    JUNK,
)


def task_for(command: str, draw) -> dict:
    """A valid task for ``command``, with every key some command reads; the
    mutations then break it."""
    return {
        "command": command,
        "phi": draw(st.sampled_from(["scale", "zero"])),
        "psi": "scale",
        "n_max": draw(st.integers(1, 40)), "tail_window": draw(st.integers(1, 10)),
        "D": draw(st.integers(1, 6)), "N": draw(st.integers(1, 2)),
        "T": draw(st.sampled_from(["1", "2.5", "4"])),
        "T_grid": ["1", "2"], "beta_grid": {"start": "-1", "stop": "2", "step": "0.5"},
        "lambda": draw(st.sampled_from(["0.4", "0.7"])),
        "epsilon": "0.05",
        "tol": draw(st.sampled_from(["1e-6", "1e-9"])),
        "subset": draw(st.one_of(
            st.just({"variant": "all"}),
            st.fixed_dictionaries({
                "variant": st.just("cylinders"),
                "words": st.lists(st.lists(st.integers(1, 3), max_size=3), max_size=3),
            }),
        )),
        "candidates": draw(st.lists(CANDIDATE, max_size=2)),
    }


def paths(node, prefix=()):
    """Every key path of a JSON tree, list indices included, except inside an
    over-long grid."""
    items = ()
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and len(node) <= MAX_GRID_POINTS:
        items = enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def parent_of(config, path):
    for key in path[:-1]:
        config = config[key]
    return config


def is_number(value) -> bool:
    """An integer, or a string spelled like a decimal or a fraction."""
    if isinstance(value, str):
        return re.fullmatch(r"[-+]?[0-9][0-9./eE+-]*", value) is not None
    return isinstance(value, int) and not isinstance(value, bool)


@st.composite
def configs(draw):
    with open(bundled_config_path(draw(st.sampled_from(BASES))), encoding="utf-8") as fh:
        config = json.load(fh)
    if draw(st.booleans()):
        config["task"] = task_for(draw(st.sampled_from(COMMANDS)), draw)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["number", "junk", "task", "delete", "size", "grid", "prefix"]))
        task = config.get("task")
        if kind == "prefix":
            config["output"] = {"prefix": draw(PREFIXES)}
        elif kind == "task":  # junk at a key the command reads
            if isinstance(task, dict) and task:
                task[draw(st.sampled_from(sorted(task)))] = draw(JUNK)
        elif kind in ("size", "grid"):
            if isinstance(task, dict):
                key = draw(st.sampled_from(SIZE_KEYS if kind == "size" else GRID_KEYS))
                task[key] = draw(SIZES if kind == "size" else GRIDS)
        elif kind == "number":  # a junk string where the config has a number
            leaves = sorted(paths(config), key=repr)
            leaves = [p for p in leaves if is_number(parent_of(config, p)[p[-1]])]
            if leaves:
                path = draw(st.sampled_from(leaves))
                parent_of(config, path)[path[-1]] = draw(st.sampled_from(STRINGS))
        else:
            # a top-level block first, so each block is hit about as often
            top = draw(st.sampled_from(sorted(config)))
            path = draw(st.sampled_from([(top,)] + sorted(paths(config[top], (top,)), key=repr)))
            block = parent_of(config, path)
            if kind == "delete" and isinstance(block, dict):
                del block[path[-1]]
            else:
                block[path[-1]] = draw(JUNK)
    return config


def _alarm(signum, frame):
    raise TimeoutError


@settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_mutated_configs_exit_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err, out = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 5 * RUN_LIMIT_S)  # a hang fails, not stalls
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main(["--config", path, "--out", os.path.join(tmp, "out")])
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4), stderr
    assert "Traceback" not in stderr and stderr.count("\n") <= 1, stderr
    assert elapsed < RUN_LIMIT_S, f"{elapsed:.2f} s"
