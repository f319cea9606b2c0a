"""End-to-end benchmark of invpressure: seeded run configs through ``cli.run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 40 --trace 0

One process, one client, closed loop: the workload's job list (every job one
``cli.run(config, out_dir, threads=1)`` call) runs in order, and the list is
run again while the time budget lasts.  The first pass checks every job
against its independent reference (``references.py``); later passes must
reproduce the first pass's output bytes.  A job fails if it raises, overruns
its time limit, or misses its reference.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` half the budget runs untraced and
half traced, and the metrics are the per-layer ones from ``tracing.py``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

JOB_LIMIT_S = 20.0  # per job; an overrun is a failed job
RUN_LIMIT_S = 150.0  # past this, the remaining jobs of a pass are failed, not run
SETUP_TRIALS = 5  # at least; one more follows every pass


class JobTimeout(BaseException):
    """Raised by SIGALRM inside an overrunning job (not an Exception, so no handler eats it)."""


def _alarm(_signum, _frame):
    raise JobTimeout()


def load_program():
    """Import invpressure from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "invpressure")):
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import invpressure
    from invpressure import cli

    if not os.path.abspath(invpressure.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported invpressure from {invpressure.__file__}")
    return invpressure, cli


def import_time() -> float:
    """Wall time of a fresh interpreter importing the package (and numpy)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import invpressure"],
                   env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def read_outputs(manifest: dict, out_dir: str) -> dict[str, list[list[str]]]:
    tables = {}
    for name in manifest["outputs"]:
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            tables[name] = list(csv.reader(fh))[1:]
    return tables


def fingerprint(manifest: dict, out_dir: str) -> str:
    h = hashlib.sha256(json.dumps(manifest["info"], sort_keys=True, default=str).encode())
    for name in manifest["outputs"]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs passes over one job list and keeps per-job times and verdicts."""

    def __init__(self, cli, jobs, out_dir: str, started: float):
        self.cli, self.jobs, self.out_dir, self.started = cli, jobs, out_dir, started
        self.times = [[] for _ in jobs]  # seconds per pass, per job
        self.verdict: list[str | None] = [None] * len(jobs)  # first-pass failure reason
        self.digest: list[str | None] = [None] * len(jobs)
        self.attempted = 0
        self.failures: list[str] = []
        self.check_s = 0.0

    def run_job(self, k: int) -> float:
        """Run job k once; returns its time (0 when the run limit skipped it)."""
        job = self.jobs[k]
        self.attempted += 1
        reason = None
        if time.monotonic() - self.started > RUN_LIMIT_S:
            self.failures.append(f"{job.name}: not run, run time limit reached")
            return 0.0
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        t0 = time.perf_counter()
        try:
            manifest = self.cli.run(job.config, self.out_dir, threads=1)
        except JobTimeout:
            manifest, reason = None, f"overran {JOB_LIMIT_S} s"
        except Exception as e:  # a job's own failure is a result, not a benchmark error
            manifest, reason = None, f"raised {type(e).__name__}: {e}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.times[k].append(elapsed)
        if manifest is not None:
            digest = fingerprint(manifest, self.out_dir)
            if self.digest[k] is None:
                self.digest[k] = digest
                self.verdict[k] = self.check(job, manifest)
            elif digest != self.digest[k]:
                reason = "output differs from the first pass"
            reason = reason or self.verdict[k]
        if reason:
            self.failures.append(f"{job.name}: {reason}")
        return elapsed

    def check(self, job, manifest) -> str | None:
        import references

        t0 = time.perf_counter()
        try:
            return references.check(job, manifest, read_outputs(manifest, self.out_dir))
        except Exception as e:
            return f"reference check raised {type(e).__name__}: {e}"
        finally:
            self.check_s += time.perf_counter() - t0

    def run_pass(self) -> float:
        return sum(self.run_job(k) for k in range(len(self.jobs)))

    def run_for(self, seconds: float, passes: list[float], before=None, after=None) -> None:
        """At least one pass; another while it should end within the budget."""
        t0 = time.monotonic()
        while True:
            if before:
                before()
            passes.append(self.run_pass())
            if after:
                after(passes[-1])
            elapsed = time.monotonic() - t0
            if elapsed + statistics.median(passes) > seconds:
                return
            if time.monotonic() - self.started > RUN_LIMIT_S:
                return


def end_to_end(runner: Runner, setup_times: list[float]) -> dict:
    per_job = [statistics.median(t) for t in runner.times if t]
    deciles = statistics.quantiles(per_job, n=10)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_job), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_p90_s": (deciles[-1], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    program, cli = load_program()
    sys.path.insert(0, HERE)
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    jobs = workloads.jobs_for(args.workload, args.seed) + workloads.smoke()
    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)

    runner = Runner(cli, jobs, out_dir, started)
    walls: list[float] = []
    traced_walls: list[float] = []
    if args.trace == 0:
        # import trials spread over the run, so a slow spell of the host moves few of them
        import_time()  # may write bytecode caches
        setup_times = [import_time()]
        runner.run_for(args.seconds, walls, after=lambda _wall: setup_times.append(import_time()))
        while len(setup_times) < SETUP_TRIALS:
            setup_times.append(import_time())
        metrics = end_to_end(runner, setup_times)
    else:
        runner.run_for(args.seconds / 2, walls)
        tracer = tracing.Tracer(program)
        per_pass = []

        def reset():
            tracer.spans.clear()
            tracer.counts.clear()

        def collect(wall):
            per_pass.append(tracer.metrics(wall, statistics.median(walls)))

        tracer.install()
        try:
            runner.run_for(args.seconds / 2, traced_walls, before=reset, after=collect)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        metrics = {m: (statistics.median(p[m] for p in per_pass), unit)
                   for m, unit in tracing.METRICS.items()}
    shutil.rmtree(out_dir, ignore_errors=True)

    for line in runner.failures[:20]:
        print("FAIL", line)
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {len(walls) + len(traced_walls)} passes, "
          f"{runner.attempted} attempted, {len(runner.failures)} failed; "
          f"passes {' '.join(f'{w:.2f}' for w in walls)} s, "
          f"traced {' '.join(f'{w:.2f}' for w in traced_walls) or '-'} s, checks {runner.check_s:.2f} s, "
          f"total {time.monotonic() - started:.1f} s")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
