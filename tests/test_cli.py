"""Config-driven runs: schema handling, exit codes, artifacts, determinism."""

import json
import math

import pytest

import invpressure as ip
from invpressure.cli import bundled_config_path, main, run
from invpressure.symbolic import MAX_GRID_POINTS

BUNDLED = ("full-shift-3.json", "golden-mean.json", "affine-doubling.json")


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

    def test_math_precondition_is_4(self, tmp_path):
        cfg = load("golden-mean.json")
        cfg["control_range"]["potentials"]["scale"]["a"] = "-1.0"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 4


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
