"""Config-driven runs: schema handling, exit codes, artifacts, determinism."""

import csv
import errno
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

import invpressure as ip
from invpressure import cli
from invpressure.cli import Run, _fraction, _lines, _write_artifact, bundled_config_path, main, run
from invpressure.symbolic import MAX_DEPTH, MAX_GRID_POINTS

BUNDLED = (
    "full-shift-3.json", "golden-mean.json", "affine-doubling.json", "finite-state-ring.json",
)


def load(name):
    with open(bundled_config_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestBundledConfigs:
    def test_all_bundled_configs_run(self, tmp_path):
        for name in BUNDLED:
            out = tmp_path / name.replace(".json", "")
            manifest = run(load(name), str(out))
            assert (out / "manifest.json").exists()
            for artifact in manifest["outputs"]:
                assert (out / artifact).exists()

    def test_golden_mean_root_value(self, tmp_path):
        manifest = run(load("golden-mean.json"), str(tmp_path / "gm"))
        assert manifest["info"]["beta_hat"] == pytest.approx(0.3822450858, abs=1e-6)

    def test_affine_config_reports_valid(self, tmp_path):
        manifest = run(load("affine-doubling.json"), str(tmp_path / "aff"))
        assert manifest["info"]["valid"] is True

    def test_full_shift_pressure_oracle(self, tmp_path):
        manifest = run(load("full-shift-3.json"), str(tmp_path / "fs"))
        assert manifest["info"]["oracle"] == pytest.approx(math.log(3), abs=1e-10)


    def test_manifest_is_one_sorted_json_line(self, tmp_path):
        for name in BUNDLED:
            cfg = load(name)
            out = tmp_path / name.replace(".json", "")
            manifest = run(cfg, str(out))
            text = (out / "manifest.json").read_text(encoding="utf-8")
            assert text.endswith("\n") and text.count("\n") == 1
            on_disk = json.loads(text)
            assert on_disk == json.loads(json.dumps(manifest, default=str))
            assert on_disk["config"] == cfg
            assert text == json.dumps(on_disk, sort_keys=True) + "\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for name in BUNDLED:
            cfg = load(name)
            m1 = run(cfg, str(tmp_path / "a" / name))
            m2 = run(cfg, str(tmp_path / "b" / name))
            assert m1["outputs"] == m2["outputs"]
            for artifact in m1["outputs"]:
                b1 = (tmp_path / "a" / name / artifact).read_bytes()
                b2 = (tmp_path / "b" / name / artifact).read_bytes()
                assert b1 == b2

    def test_rerun_into_the_same_directory(self, tmp_path):
        for name in BUNDLED:
            cfg, out = load(name), tmp_path / name
            first = run(cfg, str(out))
            before = {f: (out / f).read_bytes() for f in first["outputs"]}
            second = run(cfg, str(out))
            assert second["outputs"] == first["outputs"]
            assert {f: (out / f).read_bytes() for f in second["outputs"]} == before
            assert (out / "manifest.json").read_text(encoding="utf-8").count("\n") == 1
            assert not list(out.glob("*.tmp"))


#: tasks with one malformed integer field or one non-finite real
MALFORMED = {
    "D-not-integer": {"command": "bs-dim", "phi": "ones", "D": "abc"},
    "N-not-integer": {"command": "pp-pressure", "phi": "ones", "N": "x"},
    "subset-word-not-integer": {
        "command": "pp-pressure", "phi": "ones",
        "subset": {"variant": "cylinders", "words": [["a"]]},
    },
    "lambda-nan": {"command": "frostman", "phi": "ones", "lambda": "nan", "D": 6},
    "epsilon-nan": {"command": "sandwich", "phi": "ones", "lambda": "0.4", "epsilon": "nan"},
    "tol-nan": {"command": "bs-dim", "phi": "ones", "tol": "nan"},
    "tol-integer-past-float": {"command": "bs-dim", "phi": "ones", "tol": 10**400},
}

FINITE_STATE = {
    "partition": {"tau": 1, "control_words": {"1": ["u"], "2": ["u"]}},
    "system": {
        "type": "finite-state",
        "states": ["p", "q"],
        "transition": {"p": {"u": "q"}, "q": {"u": "p"}},
        "cell_of": {"p": 1, "q": 2},
    },
    "task": {"command": "validate"},
}

#: one run per site that ended with a traceback, a warning or a guard that missed the cause
#: once a weight is huge, on the golden mean with the potential {"a": value, "b": "1"} as phi
#: or psi (and scale as the other): (value, role, command, exit code, start of the one
#: stderr line)
HUGE_WEIGHTS = {
    "cycle-rounded-away": (
        "1e50", "phi", "bowen-root", 3,
        "guard tripped: max-plus balance of 2 symbols rounds away every cycle",
    ),
    "max-plus-overflow": (
        "-1e308", "phi", "scan", 3,
        "guard tripped: max-plus balance of 2 symbols left the float range",
    ),
    "tilted-weight-overflow": (
        "1e308", "psi", "bowen-root", 3,
        "guard tripped: max-plus balance of 2 symbols left the float range",
    ),
    "level-sum-overflow": (
        "-1e308", "phi", "pressure", 3, "guard tripped: level sums left the float range at level 2",
    ),
    "bracket-too-wide": (
        "-1e300", "phi", "bowen-root", 3,
        "guard tripped: bracket [-5e+299, -2.5e+299] cannot be shrunk",
    ),
    "bracket-squares-past-float": ("1e200", "phi", "pp-pressure", 0, None),
    "flanking-value-past-float": ("1e20", "phi", "bs-dim", 0, None),
    # at lambda = -1 every cap is exp(weight), so the flow total is about exp(1e10)
    "flow-total-past-float": ("1e10", "phi", "frostman", 3, "guard tripped: flow total exp("),
    # the dimension is found (see test_bs_dim_at_a_huge_weight_spread_certifies_the_root), and
    # the Frostman flow at the lower end of its bracket, at least 0, caps no cylinder above 1
    "flow-total-at-spread-1e100": ("1e100", "phi", "vp-check", 0, None),
    "flow-total-at-spread-1e200": ("1e200", "phi", "vp-check", 0, None),
}

#: (base config, key path, value of the wrong JSON type at that path, the line it is refused with)
WRONG_TYPE = {
    "subset-string": (
        "golden-mean.json", ("task",),
        {"command": "pp-pressure", "phi": "scale", "D": 6, "subset": "all"},
        "task.subset: expected an object, got 'all'",
    ),
    "task-list": (
        "golden-mean.json", ("task",), ["command"],
        "config.task: expected an object, got ['command']",
    ),
    "transitions-number": (
        "golden-mean.json", ("system", "transitions"), 5,
        "system.transitions: expected a list, got 5",
    ),
    "potentials-list": (
        "golden-mean.json", ("control_range", "potentials"), ["x"],
        "control_range.potentials: expected an object, got ['x']",
    ),
    "control-words-list": (
        "golden-mean.json", ("partition", "control_words"), [["a"], ["b"]],
        "partition.control_words: expected an object, got [['a'], ['b']]",
    ),
    "transition-row-list": (
        None, ("system", "transition", "p"), ["q"],
        "transition row p: expected an object, got ['q']",
    ),
    "interval-triple": (
        "affine-doubling.json", ("system", "interval"), ["0", "1/2", "1"],
        "interval: expected a pair [a, b], got ['0', '1/2', '1']",
    ),
    "guards-list": (
        "golden-mean.json", ("guards",), [1],
        "config.guards: expected an object, got [1]",
    ),
    "potential-reference-list": (
        "golden-mean.json", ("task", "psi"), ["scale"],
        "task.psi: expected a potential name, got ['scale']",
    ),
    "potential-reference-object": (
        "golden-mean.json", ("task", "phi"), {"a": "1"},
        "task.phi: expected a potential name, got {'a': '1'}",
    ),
    "tail-window-null": (
        "full-shift-3.json", ("task", "tail_window"), None,
        "tail_window: expected an integer, got None",
    ),
    "n-max-null": (
        "full-shift-3.json", ("task", "n_max"), None,
        "n_max: expected an integer, got None",
    ),
    # relations off the [int, int] form are parsed entry by entry, and name the bad entry
    "transition-float-end": (
        "golden-mean.json", ("system", "transitions"), [[1, 1], [1.0, 2]],
        "transitions: expected an integer, got 1.0",
    ),
    "transition-bool-end": (
        "golden-mean.json", ("system", "transitions"), [[True, 2]],
        "transitions: expected an integer, got True",
    ),
    "transition-triple": (
        "golden-mean.json", ("system", "transitions"), [[1, 2, 3]],
        "transitions: expected a pair [a, b], got [1, 2, 3]",
    ),
    "transition-object": (
        "golden-mean.json", ("system", "transitions"), [{"a": 1}],
        "transitions: expected a pair [a, b], got {'a': 1}",
    ),
    "transition-word-end": (
        "golden-mean.json", ("system", "transitions"), [["x", 1]],
        "transitions: cannot parse integer 'x'",
    ),
}


#: finite-state blocks the library refuses: (system keys replaced, task, the line it exits 4 with)
FINITE_STATE_REFUSALS = {
    "repeated-state": (
        {"states": ["p", "q", "p"]}, "validate",
        "state 'p' is listed twice in states",
    ),
    "repeated-invariant-state": (
        {"invariant_set": ["q", "p", "q"]}, "validate",
        "state 'q' is listed twice in invariant_set",
    ),
    "unknown-invariant-state": (
        {"invariant_set": ["p", "z"]}, "validate",
        "invariant-set state 'z' unknown",
    ),
    "state-without-cell": (
        {"cell_of": {"p": 1}}, "validate",
        "state 'q' has no cell assignment",
    ),
    "cell-outside-partition": (
        {"cell_of": {"p": 1, "q": 3}}, "validate",
        "system cells [1, 3] not all in partition symbols",
    ),
    "escaping-partition": (
        {"transition": {"p": {"u": "q"}, "q": {"v": "p"}}}, "pressure",
        "partition not invariant; first violation: (2, 1, \"state 'q' escapes at step 1\")",
    ),
    "empty-invariant-set": (
        {"invariant_set": []}, "pressure",
        "itinerary language needs at least one state",
    ),
}


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        code = main([
            "--config", bundled_config_path("golden-mean.json"),
            "--out", str(tmp_path / "ok"),
        ])
        assert code == 0

    def test_schema_error_is_2(self, tmp_path):
        cfg = load("golden-mean.json")
        del cfg["partition"]
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_command_is_2(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["task"]["command"] = "frobnicate"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_potential_is_2(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["task"]["psi"] = "missing"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2

    def test_guard_trip_is_3(self, tmp_path):
        # guard overrides only bind behind the explicit flag
        cfg = load("full-shift-3.json")
        cfg["task"] = {"command": "pp-pressure", "phi": "zero", "N": 1, "D": 10}
        cfg["guards"] = {"max_tree_nodes": 500}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "a"), "--force-guards"]) == 3
        assert main(["--config", path, "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("task", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_field_is_2(self, tmp_path, capsys, task):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["ones"] = {"a": "1.0", "b": "1.0"}
        cfg["task"] = task
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("base,path,value,line", WRONG_TYPE.values(), ids=WRONG_TYPE.keys())
    def test_wrong_json_type_is_2(self, tmp_path, capsys, base, path, value, line):
        cfg = json.loads(json.dumps(FINITE_STATE)) if base is None else load(base)
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        path = write_config(tmp_path, cfg)
        # guard overrides are read only behind the flag; no other block depends on it
        assert main(["--config", path, "--out", str(tmp_path / "o"), "--force-guards"]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_potential_that_overflows_its_control_word_is_4(self, tmp_path, capsys):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["big"] = {"a": "1e308", "b": "1e308"}
        cfg["partition"] = {"tau": 2, "control_words": {"1": ["a", "a"], "2": ["b", "b"]}}
        cfg["task"] = {"command": "bowen-root", "phi": "big", "psi": "scale"}
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "precondition failed: potential 'big' overflows on cell 1\n"
        )

    @pytest.mark.parametrize("value,role,command,code,line", HUGE_WEIGHTS.values(), ids=HUGE_WEIGHTS.keys())
    def test_huge_weight_ends_cleanly(self, tmp_path, capsys, value, role, command, code, line):
        # pytest turns any RuntimeWarning into an error, so a clean run also warns of nothing
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["P"] = {"a": value, "b": "1"}
        other = "psi" if role == "phi" else "phi"
        cfg["task"] = {"command": command, role: "P", other: "scale", "n_max": 12, "beta_grid": ["0"],
                       "D": 5, "lambda": "-1"}
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if line is None:
            assert err == ""
        else:
            assert err.startswith(line) and err.count("\n") == 1, err

    @pytest.mark.parametrize("spread", ["1e100", "1e200", "1e305"])
    def test_bs_dim_at_a_huge_weight_spread_certifies_the_root(self, tmp_path, capsys, spread):
        # golden mean, dimension weights (M, 1): the root is about ln 2 / M
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["P"] = {"a": spread, "b": "1"}
        cfg["task"] = {"command": "bs-dim", "phi": "P", "D": 5}
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, row = (out / "golden_mean.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), map(float, row.split(","))))
        assert 0.0 < cells["value"] and cells["error_bound"] <= 1e-6
        assert abs(cells["value"] - math.log(2) / float(spread)) <= cells["error_bound"]

    @pytest.mark.parametrize("command", ["bowen-root", "characterize"])
    @pytest.mark.parametrize(
        "spread", [("1e300", "1"), ("1", "1e300"), ("1e308", "1")], ids=["1e300-1", "1-1e300", "1e308-1"]
    )
    def test_root_at_a_psi_spread_of_1e300_is_0(self, tmp_path, capsys, spread, command):
        # golden mean, psi (a, b): 1 = exp(-beta*a) + exp(-beta*(a + b)) at the root,
        # about ln 2 / M for (M, 1), and about 6.8e-298 for (1, 1e300)
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["S"] = dict(zip("ab", spread))
        cfg["task"] = {"command": command, "phi": "zero", "psi": "S", "T": "3",
                       "beta_grid": ["-0.1", "0.1"]}
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = (out / "golden_mean.csv").read_text().splitlines()
        if command == "characterize":
            assert rows == ["-0.1,divergent-evidence", "0.1,convergent-with-bound"]
            return
        cells = dict(zip(header.split(","), map(float, rows[0].split(","))))
        root = 6.8e-298 if spread[0] == "1" else math.log(2) / float(spread[0])
        assert cells["error_bound"] <= 1e-9
        assert abs(cells["beta_hat"] - root) <= cells["error_bound"]

    @pytest.mark.parametrize("end", [10**30, -(2**70), 2**63, 0])
    def test_relation_end_that_is_no_symbol_is_4(self, tmp_path, capsys, end):
        # an end past int64 is compared as the integer it is, never cast
        cfg = load("golden-mean.json")
        cfg["system"]["transitions"] = [[1, 1], [1, 2], [2, 1], [end, 1]]
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err == f"precondition failed: transition ({end},1) uses unknown symbol\n"

    @pytest.mark.parametrize(
        "command,key", [("pressure", "n_max"), ("bs-dim", "D")]
    )
    def test_oversized_depth_is_3(self, tmp_path, capsys, command, key):
        # 10^9 levels: the guard must refuse before anything is allocated
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": command, "phi": "scale", "psi": "scale", "T": "3",
                       "beta_grid": ["0.5"], key: str(10**9)}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard tripped: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "task", [{"command": "induced", "T_grid": ["1e9"]}, {"command": "characterize", "T": "1e9"}]
    )
    def test_oversized_budget_horizon_is_3(self, tmp_path, capsys, task):
        # T = 1e9 at psi >= 1 spans 10^9 levels: refused before any graph is built
        cfg = load("golden-mean.json")
        cfg["task"] = {"phi": "zero", "psi": "scale", "beta_grid": ["0.5"], **task}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard tripped: ") and err.count("\n") == 1

    def test_induced_cell_guard_is_3(self, tmp_path, capsys):
        # guards.max_words bounds the induced cell DP, behind the flag only
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": "induced", "phi": "zero", "psi": "scale", "T_grid": ["20"]}
        cfg["guards"] = {"max_words": 10}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "a"), "--force-guards"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard tripped: ") and err.count("\n") == 1
        assert main(["--config", path, "--out", str(tmp_path / "b")]) == 0

    def test_induced_huge_psi_weight_is_0(self, tmp_path):
        # a psi weight far above the budget crosses on its own edge: on the golden mean
        # with psi (1e300, 1) and T = 1 the crossing prefixes are () and 2
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["huge"] = {"a": "1e300", "b": "1.0"}
        cfg["task"] = {"command": "induced", "phi": "zero", "psi": "huge", "T_grid": ["1"]}
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "golden_mean.csv").read_text() == (
            "T,log_sum,normalized\n1.0,0.6931471805599453,0.6931471805599453\n"
        )

    def test_vp_check_honours_max_tree_nodes(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["system"]["transitions"] = [[1, 1], [1, 2], [2, 1], [2, 2]]
        cfg["control_range"]["potentials"]["ones"] = {"a": "1.0", "b": "1.0"}
        cfg["task"] = {"command": "vp-check", "phi": "ones", "D": 14,
                       "candidates": [{"type": "bernoulli", "p": ["0.5", "0.5"]}]}
        cfg["guards"] = {"max_tree_nodes": 1000}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "a"), "--force-guards"]) == 3
        assert main(["--config", path, "--out", str(tmp_path / "b")]) == 0

    def test_depth_at_limit_runs(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": "pressure", "phi": "scale", "n_max": MAX_DEPTH}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command,key", [("scan", "beta_grid"), ("induced", "T_grid")])
    def test_oversized_grid_is_3(self, tmp_path, capsys, command, key):
        # 10^12 points: the guard must refuse before a single point is built
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": command, "phi": "zero", "psi": "scale",
                       key: {"start": "0.5", "stop": "1.5", "step": "1e-12"}}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard tripped: ") and err.count("\n") == 1

    def test_oversized_grid_list_is_3(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": "scan", "phi": "zero", "psi": "scale",
                       "beta_grid": ["0.5"] * (MAX_GRID_POINTS + 1)}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "o")]) == 3

    def test_integer_past_the_digit_limit_is_2(self, tmp_path, capsys):
        # Python 3.11+ refuses to parse a JSON integer of over 4300 digits
        path = tmp_path / "cfg.json"
        path.write_text('{"tol": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1e-1001", "1e-1000000000", "1E+1000000000", "-2e1001"])
    def test_exponent_above_the_cap_is_2(self, tmp_path, capsys, value):
        # refused before Fraction parses it, in a time that grows faster than the exponent
        cfg = load("affine-doubling.json")
        cfg["system"]["contraction"] = value
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: contraction: exponent of ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key,value", [("contraction", "1/0"), ("interval", ["0", "1/0"]), ("cut_points", ["0/0"])]
    )
    def test_zero_denominator_is_2(self, tmp_path, capsys, key, value):
        cfg = load("affine-doubling.json")
        cfg["system"][key] = value
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "cannot parse rational" in err and err.count("\n") == 1

    def test_exponent_at_the_cap_is_parsed(self):
        assert _fraction("5e-1000", "x") == Fraction(5, 10**1000)
        assert _fraction("-1.5E+1000", "x") == -15 * 10**999

    @pytest.mark.parametrize(
        "prefix",
        ["../escaped", "a/b", "a\\b", "a\0b", "", ".", "..", ["a"], 5, None, "\ud800",
         "x" * 233, "\u00e9" * 117],
    )
    def test_prefix_that_is_not_a_file_name_is_2(self, tmp_path, capsys, prefix):
        cfg = load("golden-mean.json")
        cfg["output"]["prefix"] = prefix
        out = tmp_path / "runs" / "o"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output.prefix: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]

    def test_prefix_at_the_name_limit_writes_every_file(self, tmp_path):
        # 232 bytes plus "_cover_solution.csv.tmp" make the 255-byte limit
        cfg = load("golden-mean.json")
        cfg["output"]["prefix"] = "x" * 232
        cfg["task"] = {"command": "pp-pressure", "phi": "scale", "D": 8}
        outputs = run(cfg, str(tmp_path))["outputs"]
        assert outputs == ["x" * 232 + ".csv", "x" * 232 + "_cover_solution.csv"]

    def test_too_long_prefix_is_refused_while_parsing(self):
        cfg = load("golden-mean.json")
        cfg["output"]["prefix"] = "x" * 233
        with pytest.raises(ip.ConfigError, match="256-byte file names"):
            Run(cfg)

    def test_candidate_name_without_utf8_is_2(self, tmp_path, capsys):
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": "vp-check", "phi": "scale", "D": 6,
                       "candidates": [{"type": "parry", "name": "\ud800"}]}
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: candidate.name: '\\ud800' has no UTF-8 encoding\n"
        )
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_prefix_with_dots_inside_is_a_file_name(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["output"]["prefix"] = "..run.1"
        assert run(cfg, str(tmp_path))["outputs"] == ["..run.1.csv"]

    @pytest.mark.parametrize(
        "keys,command,line", FINITE_STATE_REFUSALS.values(), ids=FINITE_STATE_REFUSALS.keys()
    )
    def test_finite_state_refusal_is_4(self, tmp_path, capsys, keys, command, line):
        cfg = json.loads(json.dumps(FINITE_STATE))
        cfg["system"].update(keys)
        cfg["control_range"] = {"values": ["u", "v"], "potentials": {"phi": {"u": "1", "v": "2"}}}
        cfg["task"] = {"command": command, "phi": "phi"}
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == f"precondition failed: {line}\n"

    def test_math_precondition_is_4(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["scale"]["a"] = "-1.0"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize(
        "P", [[["0.5", "0.5", "0"]], [["0.5", "0.5"], ["1"]], [["0.5", "0.5"]] * 3]
    )
    def test_markov_candidate_not_q_by_q_is_2(self, tmp_path, capsys, P):
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": "vp-check", "phi": "scale", "D": 6,
                       "candidates": [{"type": "markov", "P": P}]}
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: candidate.P: expected 2 rows of 2 reals\n"

    def test_markov_row_off_by_more_than_1e9_is_4_in_one_line(self, tmp_path, capsys):
        cfg = load("golden-mean.json")
        cfg["system"]["transitions"] = [[1, 1], [1, 2], [2, 1], [2, 2]]
        P = [["0.5", "0.500009"], ["0.5", "0.5"]]
        cfg["task"] = {"command": "vp-check", "phi": "scale", "D": 6,
                       "candidates": [{"type": "markov", "P": P}]}
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "precondition failed: rows must sum to 1\n"

    def test_parry_on_a_zero_perron_entry_is_4_in_one_line(self, tmp_path, capsys):
        # 1->1, 1->2, 2->2: each Parry row would divide by the zero entry, and the
        # suite turns that RuntimeWarning into an error
        cfg = load("golden-mean.json")
        cfg["system"]["transitions"] = [[1, 1], [1, 2], [2, 2]]
        cfg["task"] = {"command": "vp-check", "phi": "scale", "D": 6,
                       "candidates": [{"type": "parry"}]}
        # a 4-cycle feeding a loop, both of radius 1: the cycle's zero entries
        # come out of LAPACK as rounding noise, so only the block structure tells
        tied = json.loads(json.dumps(cfg))
        controls = "abcde"
        tied["control_range"] = {"values": list(controls),
                                 "potentials": {"scale": dict.fromkeys(controls, "1.0")}}
        tied["partition"]["control_words"] = {str(k + 1): [u] for k, u in enumerate(controls)}
        tied["system"]["transitions"] = [[1, 2], [2, 3], [3, 4], [4, 1], [1, 5], [5, 5]]
        for k, config in enumerate((cfg, tied)):
            path = write_config(tmp_path, config, f"cfg{k}.json")
            assert main(["--config", path, "--out", str(tmp_path / f"o{k}")]) == 4
            err = capsys.readouterr().err
            assert err.startswith("precondition failed: ") and "Perron vector" in err
            assert err.count("\n") == 1

    def test_out_naming_a_file_is_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept", encoding="utf-8")
        path = bundled_config_path("golden-mean.json")
        assert main(["--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "kept"

    def test_artifact_path_that_is_a_directory_is_2(self, tmp_path, capsys):
        (tmp_path / "golden_mean.csv").mkdir()
        path = bundled_config_path("golden-mean.json")
        assert main(["--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["golden_mean.csv"]


class TestCommands:
    def test_scan_rows_and_lipschitz(self, tmp_path):
        cfg = load("full-shift-3.json")
        cfg["control_range"]["potentials"]["ones"] = {"u1": "1.0", "u2": "1.0", "u3": "1.0"}
        cfg["task"] = {
            "command": "scan", "phi": "zero", "psi": "ones",
            "beta_grid": {"start": "0.0", "stop": "1.0", "step": "0.05"},
        }
        out = tmp_path / "scan"
        run(cfg, str(out))
        rows = (out / "full_shift_3.csv").read_text().strip().splitlines()
        assert rows[0] == "beta,phi_value"
        data = [tuple(map(float, line.split(","))) for line in rows[1:]]
        assert len(data) == 21
        rate = 1.0  # max psi rate
        for (b1, v1), (b2, v2) in zip(data, data[1:]):
            assert v2 <= v1 + 1e-12  # monotone decreasing
            assert abs(v1 - v2) <= rate * abs(b1 - b2) + 1e-9

    def test_induced_and_characterize(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["task"] = {"command": "induced", "phi": "zero", "psi": "scale",
                       "T_grid": ["2.0", "3.0", "4.0"]}
        out = tmp_path / "ind"
        run(cfg, str(out))
        lines = (out / "golden_mean.csv").read_text().strip().splitlines()
        assert lines[0] == "T,log_sum,normalized"
        assert len(lines) == 4
        row_t3 = lines[2].split(",")
        assert float(row_t3[1]) == pytest.approx(math.log(4), rel=1e-12)

        cfg["task"] = {"command": "characterize", "phi": "zero", "psi": "scale",
                       "T": "6.0", "beta_grid": {"start": "0.1", "stop": "0.7", "step": "0.05"}}
        out2 = tmp_path / "chr"
        run(cfg, str(out2))
        lines = (out2 / "golden_mean.csv").read_text().strip().splitlines()
        verdicts = [line.split(",")[1] for line in lines[1:]]
        assert ip.DIVERGENT in verdicts and ip.CONVERGENT in verdicts

    def test_induced_psi_sum_on_the_budget_is_inside(self, tmp_path):
        # 0.1 + 0.2 and 0.1 + 0.1 + 0.1 land on T = 0.3 at 12 decimals, so 1-2, 2-1 and
        # 1-1-1 stay inside; the crossing prefixes are 1-1, 1-2, 2-1 and 1-1-1
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["tenths"] = {"a": "0.1", "b": "0.2"}
        cfg["task"] = {"command": "induced", "phi": "zero", "psi": "tenths", "T_grid": ["0.3"]}
        out = tmp_path / "tie"
        run(cfg, str(out))
        lines = (out / "golden_mean.csv").read_text().strip().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(math.log(4), rel=1e-12)

    def test_pp_pressure_emits_cover(self, tmp_path):
        cfg = load("full-shift-3.json")
        cfg["task"] = {"command": "pp-pressure", "phi": "zero", "N": 1, "D": 8, "tol": "1e-8"}
        out = tmp_path / "pp"
        manifest = run(cfg, str(out))
        assert manifest["info"]["critical"] == pytest.approx(math.log(3), abs=1e-7)
        cover = (out / "full_shift_3_cover_solution.csv").read_text().strip().splitlines()
        assert cover[0] == "word,cost"
        assert len(cover) > 1

    def test_bs_dim_and_frostman_and_sandwich(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["ones"] = {"a": "1.0", "b": "1.0"}
        cfg["task"] = {"command": "bs-dim", "phi": "ones", "D": 12, "tol": "1e-6"}
        manifest = run(cfg, str(tmp_path / "bs"))
        assert manifest["info"]["dimension"] == pytest.approx(0.4812118, abs=1e-5)

        cfg["task"] = {"command": "frostman", "phi": "ones", "lambda": "0.4", "N": 1, "D": 6}
        manifest = run(cfg, str(tmp_path / "fr"))
        lines = (tmp_path / "fr" / "golden_mean.csv").read_text().strip().splitlines()
        masses = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert math.fsum(masses.values()) == pytest.approx(manifest["info"]["total"], rel=1e-9)

        cfg["task"] = {"command": "sandwich", "phi": "ones", "lambda": "0.4",
                       "epsilon": "0.1", "N": 2, "D": 8}
        manifest = run(cfg, str(tmp_path / "sw"))
        assert manifest["info"]["holds"] is True

    def test_vp_check_command(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["ones"] = {"a": "1.0", "b": "1.0"}
        cfg["task"] = {
            "command": "vp-check", "phi": "ones", "D": 10, "tol": "1e-6",
            "candidates": [{"type": "parry", "name": "max-entropy"}],
        }
        out = tmp_path / "vp"
        manifest = run(cfg, str(out))
        lines = (out / "golden_mean.csv").read_text().strip().splitlines()
        assert lines[0] == "candidate,estimate,gap,slack,within_upper_bound"
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"max-entropy", "frostman"} <= names

    def test_vp_check_honours_N(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["ones"] = {"a": "1.0", "b": "1.0"}
        cfg["task"] = {
            "command": "vp-check", "phi": "ones", "N": 2, "D": 8, "tol": "1e-6",
            "candidates": [{"type": "parry", "name": "max-entropy"}],
        }
        manifest = run(cfg, str(tmp_path))
        lang = ip.compile_sft([1, 2], [(1, 1), (1, 2), (2, 1)])
        ones = ip.PerSymbolWeights({1: 1.0, 2: 1.0}, 1)
        rep = ip.vp_check(
            lang, ones, ip.SubsetSpec.whole_space(), [("max-entropy", ip.parry_measure(lang))],
            8, 1e-6, N=2,
        )
        rows = [
            f"{r.name},{r.value!r},{r.gap!r},{r.slack!r},{r.within_upper_bound}"
            for r in rep.candidates
        ]
        assert (tmp_path / "golden_mean.csv").read_text().splitlines()[1:] == rows
        assert manifest["info"]["dimension"] == rep.dimension

    def test_validate_on_finite_state_system(self, tmp_path):
        cfg = {
            "partition": {"tau": 1, "control_words": {"1": ["u"], "2": ["u"]}},
            "system": {
                "type": "finite-state",
                "states": ["p", "q"],
                "transition": {"p": {"u": "q"}, "q": {"u": "p"}},
                "cell_of": {"p": 1, "q": 2},
            },
            "task": {"command": "validate"},
        }
        manifest = run(cfg, str(tmp_path / "fs"))
        assert manifest["info"]["valid"] is True

    def test_threads_give_same_results(self, tmp_path):
        cfg = load("full-shift-3.json")
        cfg["control_range"]["potentials"]["ones"] = {"u1": "1.0", "u2": "1.0", "u3": "1.0"}
        cfg["task"] = {
            "command": "scan", "phi": "zero", "psi": "ones",
            "beta_grid": {"start": "0.0", "stop": "1.0", "step": "0.1"},
        }
        run(cfg, str(tmp_path / "t1"), threads=1)
        run(cfg, str(tmp_path / "t4"), threads=4)
        assert (tmp_path / "t1" / "full_shift_3.csv").read_bytes() == (
            tmp_path / "t4" / "full_shift_3.csv"
        ).read_bytes()


    @pytest.mark.parametrize("command", ["frostman", "vp-check"])
    def test_read_outs_at_the_depth_limit(self, tmp_path, command):
        # a 2-cycle reaches the depth limit with two words per depth
        cfg = {
            "control_range": {"values": ["a", "b"], "potentials": {"w": {"a": "0.7", "b": "1.3"}}},
            "partition": {"tau": 1, "control_words": {"1": ["a"], "2": ["b"]}},
            "system": {"type": "sft", "transitions": [[1, 2], [2, 1]]},
            "task": {"command": command, "phi": "w", "lambda": "0.5", "D": MAX_DEPTH},
            "output": {"prefix": "cycle"},
        }
        if command == "vp-check":
            del cfg["task"]["lambda"]
            cfg["task"]["candidates"] = [{"type": "parry", "name": "parry"}]
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "cycle.csv").exists()

SPARSE4 = {
    "control_range": {
        "values": ["a", "b", "c", "d"],
        "potentials": {
            "phi": {"a": "0.31", "b": "-0.42", "c": "0.17", "d": "-0.05"},
            "w": {"a": "0.8", "b": "1.3", "c": "1.05", "d": "1.7"},
        },
    },
    "partition": {"tau": 1, "control_words": {"1": ["a"], "2": ["b"], "3": ["c"], "4": ["d"]}},
    "system": {
        "type": "sft",
        "transitions": [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3], [2, 2], [4, 2]],
    },
    "output": {"prefix": "sparse4"},
}

#: the tasks of the cover read-outs that go through no numpy routine (vp-check's
#: Parry chain comes from LAPACK, whose last bits may vary with the build; its
#: lower pressures are pinned bitwise in test_measures.py instead); the sparse
#: relation's target is two cylinders of at most two symbols, since Python
#: 3.12's built-in ``sum`` (which adds up a target word's steps) rounds three
#: or more terms differently
READ_OUTS = {
    "frostman": {"command": "frostman", "phi": "w", "lambda": "0.45", "D": 12},
    "pp-pressure": {"command": "pp-pressure", "phi": "phi", "D": 12},
    "sandwich": {"command": "sandwich", "phi": "w", "lambda": "0.45", "epsilon": "0.05", "D": 12},
}

#: sha256 of every CSV of each read-out, with glibc's exp and log: a change in
#: how any read-out associates its float sums changes a digest
GOLDEN_BYTES = {
    ("golden", "frostman"): {
        "golden_mean.csv":
            "7141c5e67dbdb7eac310f16966375c473208988e9c48d82ad7a1e851862ac287",
    },
    ("golden", "pp-pressure"): {
        "golden_mean.csv":
            "351f1c89f6dd9433f7db0e1262ad6e044aacae6e7580fb4a3e38a902825ad653",
        "golden_mean_cover_solution.csv":
            "3213ea84f1161f950f8bc838410fe0c7e0d65685cf87dba2a369f560f9627e24",
    },
    ("golden", "sandwich"): {
        "golden_mean.csv":
            "5a9dcbca622529c0e79a2d55a9b3d770f87396df8cc20c6f4f8fed1654b0be5f",
    },
    ("sparse4", "frostman"): {
        "sparse4.csv":
            "8f744cfd78a0ea31211a3160502840dfa3dc0d1eee8541adca78b4f9923c1ab9",
    },
    ("sparse4", "pp-pressure"): {
        "sparse4.csv":
            "7d242ec289edb0461c45e6881f235326532b8abec38b58985f70045d5c999f6e",
        "sparse4_cover_solution.csv":
            "931ac95480b437362c764276036db455e77afffa4ad93a08c25483c252ef85a6",
    },
    ("sparse4", "sandwich"): {
        "sparse4.csv":
            "e5e7ffcc42a18ea049248cb8ab56560a0fe3bea28547533ba6499e44be314e97",
    },
}


def _read_out_config(relation, command):
    if relation == "golden":
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"].update(
            phi={"a": "0.23", "b": "-0.61"}, w={"a": "1.0", "b": "1.6"}
        )
    else:
        cfg = json.loads(json.dumps(SPARSE4))
    task = dict(READ_OUTS[command])
    if relation == "sparse4":
        task["subset"] = {"variant": "cylinders", "words": [[1, 3], [2]]}
    cfg["task"] = task
    return cfg


#: the golden mean's relation spelled otherwise, which must give the same bytes
GOLDEN_SPELLINGS = {
    "golden-integer-strings": [["1", "1"], ["1", "2"], ["2", "1"]],
    "golden-duplicate-edges": [[2, 1], [1, 1], [1, 2], [2, 1], [1, 1]],
}


class TestGoldenBytes:
    @pytest.mark.parametrize("relation", ["golden", "sparse4", *GOLDEN_SPELLINGS])
    @pytest.mark.parametrize("command", sorted(READ_OUTS))
    def test_read_out_csvs(self, tmp_path, relation, command):
        base = "golden" if relation in GOLDEN_SPELLINGS else relation
        cfg = _read_out_config(base, command)
        if relation in GOLDEN_SPELLINGS:
            cfg["system"]["transitions"] = GOLDEN_SPELLINGS[relation]
        manifest = run(cfg, str(tmp_path))
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in manifest["outputs"]
        }
        assert digests == GOLDEN_BYTES[base, command]


def random_state_config(rng: random.Random, n: int) -> dict:
    """A valid finite-state config on n states named by JSON integers, over 5 cells
    at tau 2, with three states outside Q that no move of Q reaches."""
    controls = ["u1", "u2", "u3", "u4", "u5"]
    phi = {u: f"{rng.randint(-150, 150) / 100:.2f}" for u in controls}
    psi = {u: f"{rng.randint(40, 200) / 100:.2f}" for u in controls}
    order = list(range(n))
    rng.shuffle(order)
    transition = {str(x): {u: rng.randrange(n) for u in controls} for x in order}
    for x in range(n, n + 3):
        transition[str(x)] = {"u1": rng.randrange(n + 3)}
    return {
        "control_range": {"values": controls, "potentials": {"phi": phi, "psi": psi}},
        "partition": {
            "tau": 2,
            "control_words": {str(i): [controls[i - 1], controls[i % 5]] for i in range(1, 6)},
        },
        "system": {
            "type": "finite-state",
            "states": list(range(n + 3)),
            "transition": transition,
            "invariant_set": order,
            "cell_of": {str(x): rng.randint(1, 5) for x in range(n)},
        },
        "output": {"prefix": "states"},
    }


def escaping_config(rng: random.Random, n: int) -> dict:
    """A finite-state config at tau 3 whose moves are undefined, or leave Q, with
    probability 0.05 each: most cells have escaping states."""
    controls = ["a", "b", "c"]
    names = [f"s{k}" for k in range(n)]
    outside = ["out0", "out1"]
    transition = {}
    for x in names + outside:
        row = {}
        for u in controls:
            r = rng.random()
            if r >= 0.05:
                row[u] = rng.choice(outside if r < 0.1 else names)
        transition[x] = row
    return {
        "partition": {
            "tau": 3,
            "control_words": {str(i): [rng.choice(controls) for _ in range(3)] for i in (1, 2, 3)},
        },
        "system": {
            "type": "finite-state",
            "states": names + outside,
            "transition": transition,
            "invariant_set": names,
            "cell_of": {x: rng.randint(1, 3) for x in names},
        },
        "output": {"prefix": "escaping"},
    }


#: the tasks pinned on each finite-state system: the escaping one only validates
FINITE_STATE_TASKS = {
    "validate": {"command": "validate"},
    "pressure": {"command": "pressure", "phi": "phi", "n_max": 60},
    "bowen-root": {"command": "bowen-root", "phi": "phi", "psi": "scale", "tol": "1e-9"},
    "induced": {"command": "induced", "phi": "phi", "psi": "scale", "T_grid": ["3", "6"]},
}

#: sha256 of each finite-state CSV, with glibc's exp and log
FINITE_STATE_BYTES = {
    ("ring", "validate"): {
        "finite_state_ring.csv":
            "7a8988ee5646fcecb50510bc0d750018e2eb5fb0758b60b0d8cf7c856f8bc01b",
    },
    ("ring", "pressure"): {
        "finite_state_ring.csv":
            "727ebc08c696adf1d5da9f1e37c34c01e8fe55e2476a5060f0f3201e40754d74",
    },
    ("ring", "bowen-root"): {
        "finite_state_ring.csv":
            "3bfb19b7662cfb3617e036cd35767b263d1bcee27838b05739a6d669ea776fc0",
    },
    ("ring", "induced"): {
        "finite_state_ring.csv":
            "89841edc824ac507e33be28b5662d225b34ad65b4ac3d5fdf6ab026bbfcd1a24",
    },
    ("random300", "validate"): {
        "states.csv":
            "7a8988ee5646fcecb50510bc0d750018e2eb5fb0758b60b0d8cf7c856f8bc01b",
    },
    ("random300", "pressure"): {
        "states.csv":
            "d6bf18361a1cec213a18c93529def08fd515281fc2d5f6d3a0bd796937249518",
    },
    ("random300", "bowen-root"): {
        "states.csv":
            "ae7c4d10b073c97ef1d51223d86155e81417a81712b3ede211b01ffb9f51853b",
    },
    ("random300", "induced"): {
        "states.csv":
            "a58787e5708d1041c85ace8319358f5583a4e5a084d54eca1a3d6b52a78278a0",
    },
    ("escaping", "validate"): {
        "escaping.csv":
            "e5e57d1b1a44b73c903f26f0e8f73e9821194f974f30710fb595565e31b5fa43",
    },
}


def _finite_state_config(system: str, command: str) -> dict:
    if system == "ring":
        cfg = load("finite-state-ring.json")
    elif system == "random300":
        cfg = random_state_config(random.Random("golden/random300"), 300)
    else:
        cfg = escaping_config(random.Random("golden/escaping"), 60)
    task = dict(FINITE_STATE_TASKS[command])
    if system == "random300" and "psi" in task:
        task["psi"] = "psi"
    cfg["task"] = task
    return cfg


class TestFiniteStateGoldenBytes:
    @pytest.mark.parametrize("system,command", sorted(FINITE_STATE_BYTES))
    def test_finite_state_csvs(self, tmp_path, system, command):
        manifest = run(_finite_state_config(system, command), str(tmp_path))
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in manifest["outputs"]
        }
        assert digests == FINITE_STATE_BYTES[system, command]


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def twelve_symbol_config(task: dict) -> dict:
    """The full shift on 12 symbols, whose labels run to two digits, with a cylinder target."""
    controls = [f"u{k}" for k in range(1, 13)]
    rng = random.Random("twelve")
    cfg = {
        "control_range": {"values": controls, "potentials": {
            "phi": {u: f"{rng.uniform(-1, 1):.3f}" for u in controls},
            "w": {u: f"{rng.uniform(0.5, 2):.3f}" for u in controls},
        }},
        "partition": {"tau": 1, "control_words": {str(k): [u] for k, u in enumerate(controls, 1)}},
        "system": {"type": "sft", "transitions": [[a, b] for a in range(1, 13) for b in range(1, 13)]},
        "output": {"prefix": "twelve"},
    }
    cfg["task"] = dict(task, subset={"variant": "cylinders", "words": [[11, 12], [3], [10]]})
    return cfg


def twelve_cell_states_config(task: dict) -> dict:
    """A finite-state system of 40 states over 12 cells at tau 1."""
    rng = random.Random("twelve-cells")
    controls = [f"u{k}" for k in range(1, 13)]
    cfg = {
        "control_range": {"values": controls, "potentials": {
            "phi": {u: f"{rng.uniform(-1, 1):.3f}" for u in controls},
            "w": {u: f"{rng.uniform(0.5, 2):.3f}" for u in controls},
        }},
        "partition": {"tau": 1, "control_words": {str(k): [u] for k, u in enumerate(controls, 1)}},
        "system": {
            "type": "finite-state",
            "states": list(range(40)),
            "transition": {str(x): {u: rng.randrange(40) for u in controls} for x in range(40)},
            "cell_of": {str(x): x % 12 + 1 for x in range(40)},
        },
        "output": {"prefix": "cells"},
    }
    cfg["task"] = task
    return cfg


#: the tasks whose tables are written line by line
LINE_TASKS = {
    "frostman": {"command": "frostman", "phi": "w", "lambda": "0.6", "D": 3},
    "pp-pressure": {"command": "pp-pressure", "phi": "phi", "D": 3},
    "pressure": {"command": "pressure", "phi": "phi", "n_max": 12},
    "scan": {"command": "scan", "phi": "phi", "psi": "w",
             "beta_grid": {"start": "-1", "stop": "1", "step": "0.1"}},
}


class TestLineRendering:
    @pytest.mark.parametrize("system", ["relation", "states"])
    @pytest.mark.parametrize("command", sorted(LINE_TASKS))
    def test_lines_equal_csv_writer(self, tmp_path, system, command):
        make = twelve_symbol_config if system == "relation" else twelve_cell_states_config
        cfg = make(dict(LINE_TASKS[command]))
        tables = {name: (header, list(rows)) for name, (header, rows) in Run(cfg).execute().items()}
        manifest = run(cfg, str(tmp_path))
        assert len(manifest["outputs"]) == len(tables)
        for name, (header, rows) in zip(manifest["outputs"], tables.values()):
            assert (tmp_path / name).read_bytes() == _csv_writer_bytes(header, rows)
        words = {"frostman": "frostman", "pp-pressure": "cover_solution"}.get(command)
        if words:  # some label holds a two-digit symbol
            assert any(len(s) == 2 for label, _ in tables[words][1] for s in label.split("-"))

    def test_numpy_and_special_floats(self):
        header = ["word", "mass"]
        rows = [
            ["1-12", np.float64(0.1)], ["2", math.inf], ["3", -math.inf], ["4", math.nan],
            ["10-11", -0.0], ["5", np.float64(-0.0)], ["6", np.float64("nan")],
            [np.int64(7), np.float64(math.inf)], [8, 5e-324], [9, 1e300], [10, 2**64],
        ]
        text = _lines(header, rows)
        assert text.encode("utf-8") == _csv_writer_bytes(header, rows)
        assert text.splitlines()[:8] == [
            "word,mass", "1-12,0.1", "2,inf", "3,-inf", "4,nan", "10-11,-0.0", "5,-0.0", "6,nan",
        ]

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def fail(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.os, "write", fail)
        out = tmp_path / "o"
        assert main(["--config", bundled_config_path("golden-mean.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_short_writes_give_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = twelve_symbol_config(LINE_TASKS["frostman"])
        manifest = run(cfg, str(tmp_path / "whole"))
        write = os.write
        monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:7]))
        run(cfg, str(tmp_path / "short"))
        for name in manifest["outputs"]:
            assert (tmp_path / "short" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_text_without_utf8_leaves_no_file(self, tmp_path):
        path = tmp_path / "a.csv"
        with pytest.raises(UnicodeEncodeError):
            _write_artifact(str(path), "x,\ud800\n")
        assert list(tmp_path.iterdir()) == []

    def test_artifacts_are_made_under_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            manifest = run(load("golden-mean.json"), str(tmp_path))
        finally:
            os.umask(old)
        for name in [*manifest["outputs"], "manifest.json"]:
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640
