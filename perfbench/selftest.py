"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in a few seconds:

* each workload's job list is a deterministic function of the seed, has at
  least 100 jobs, and changes with the seed;
* the smoke list covers every CLI command, every smoke job runs through
  ``cli.run`` and passes its reference check;
* each reference check rejects a perturbed copy of its job's output;
* the tracer restores every rebinding and leaves outputs unchanged;
* an overrunning job is cut by the time limit and counted as failed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

program, cli = run.load_program()

import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# where to perturb each command's output: (csv suffix, row, column)
MUTATIONS = {
    "pressure": ("", 5, 1),
    "scan": ("", 2, 1),
    "bowen-root": ("", 0, 0),
    "induced": ("", 0, 1),
    "pp-pressure": ("_cover_solution", 0, 1),
    "bs-dim": ("", 0, 0),
    "frostman": ("", 0, 1),
    "sandwich": ("", 0, 4),
}


def fail(msg: str) -> None:
    print("selftest FAILED:", msg)
    sys.exit(1)


def test_generation() -> None:
    for w in workloads.WORKLOADS:
        a = json.dumps([j.config for j in workloads.jobs_for(w, 7)], sort_keys=True)
        b = json.dumps([j.config for j in workloads.jobs_for(w, 7)], sort_keys=True)
        c = json.dumps([j.config for j in workloads.jobs_for(w, 8)], sort_keys=True)
        if a != b:
            fail(f"{w}: same seed gave different jobs")
        if a == c:
            fail(f"{w}: different seeds gave the same jobs")
        if len(workloads.jobs_for(w, 7)) < 100:
            fail(f"{w}: fewer than 100 jobs")


def mutated(tables: dict, command: str) -> dict | None:
    if command == "characterize":
        name = "characterize.csv"
        return {**tables, name: [[r[0], "inconclusive", r[2]] for r in tables[name]]}
    if command == "vp-check":
        name = "vp_check.csv"
        return {**tables, name: [r[:4] + ["False"] for r in tables[name]]}
    if command not in MUTATIONS:
        return None
    suffix, row, col = MUTATIONS[command]
    name = command.replace("-", "_") + suffix + ".csv"
    rows = [list(r) for r in tables[name]]
    rows[row][col] = repr(float(rows[row][col]) * (1 + 1e-3) + 1e-3)
    return {**tables, name: rows}


def test_smoke(out_dir: str) -> None:
    jobs = workloads.smoke()
    if {j.command for j in jobs} != set(cli.COMMANDS):
        fail(f"smoke list misses {set(cli.COMMANDS) - {j.command for j in jobs}}")
    for job in jobs:
        manifest = cli.run(job.config, out_dir, threads=1)
        tables = run.read_outputs(manifest, out_dir)
        reason = references.check(job, manifest, tables)
        if reason:
            fail(f"{job.name}: {reason}")
        bad = mutated(tables, job.command)
        if job.command == "validate":
            bad_manifest = {**manifest, "info": {"valid": not manifest["info"]["valid"]}}
            if references.check(job, bad_manifest, tables) is None:
                fail(f"{job.name}: reference accepted a flipped verdict")
        elif bad is None or references.check(job, manifest, bad) is None:
            fail(f"{job.name}: reference accepted a perturbed output")


def test_tracer(out_dir: str) -> None:
    jobs = workloads.smoke()
    plain = [run.fingerprint(cli.run(j.config, out_dir), out_dir) for j in jobs]
    before = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("invpressure")}
    tracer = tracing.Tracer(program)
    tracer.install()
    try:
        traced = [run.fingerprint(cli.run(j.config, out_dir), out_dir) for j in jobs]
    finally:
        tracer.uninstall()
    after = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("invpressure")}
    if before != after:
        fail("tracer left rebinding behind")
    if plain != traced:
        fail("traced outputs differ from untraced ones")
    metrics = tracer.metrics(1.0, 1.0)
    if set(metrics) != set(tracing.METRICS):
        fail("tracer metrics do not match the declared list")
    for name in ("symbolic.tree_s", "capacity.oracle_s", "covers.flow_s", "measures.vp_check_s",
                 "induced.induced_sum_s", "systems.compile_s", "symbolic.unit_expansions"):
        if not metrics[name] > 0:
            fail(f"tracer saw no work for {name}")


class _Hanging:
    @staticmethod
    def run(config, out_dir, threads=1):
        while True:
            pass


def test_time_limit(out_dir: str) -> None:
    saved = run.JOB_LIMIT_S
    run.JOB_LIMIT_S = 0.2
    signal.signal(signal.SIGALRM, run._alarm)
    try:
        runner = run.Runner(_Hanging, workloads.smoke()[:1], out_dir, time.monotonic())
        runner.run_pass()
    finally:
        run.JOB_LIMIT_S = saved
    if len(runner.failures) != 1 or "overran" not in runner.failures[0]:
        fail(f"time limit not enforced: {runner.failures}")


def main() -> int:
    out_dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        test_generation()
        test_smoke(out_dir)
        test_tracer(out_dir)
        test_time_limit(out_dir)
    finally:
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        os.rmdir(out_dir)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
