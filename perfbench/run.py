"""Benchmark of the mfbsde solvers.

    python3 perfbench/run.py --workload desk_closed_form --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  The job list of the workload is repeated until `--seconds` of
job time is spent; each job's output is checked after its timed
interval.  Stdout ends with one JSON line holding `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The lines before it carry the run
metadata and a summary.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# one BLAS thread: on a small shared machine this keeps timings steady,
# and the package's own work is single-threaded apart from BLAS calls
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import LAYERS, UNITS as LAYER_UNITS, Tracer, peak_rss_mb
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 51
TARGET_SE = 1e-3

E2E_UNITS = {
    "wall_s": "s",
    "time_to_se1e-3_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_metadata(args) -> dict:
    sources = sorted((SRC / "mfbsde").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": digest.hexdigest(),
        "src_mfbsde_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_setup(workload, seed: int, size: dict, workdir: Path):
    """Import the package and build the workload's inputs, SETUP_REPEATS
    times; the package modules are dropped from sys.modules before each
    round so every round imports them afresh.  numpy is imported once,
    before, since a compiled extension cannot be imported twice in one
    process.  Returns (jobs, median seconds)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == "mfbsde" or m.startswith("mfbsde.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        mf = importlib.import_module("mfbsde")
        for layer in LAYERS:
            importlib.import_module("mfbsde." + layer)
        jobs = workload.build(mf, seed, size, workdir)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


class Measurement:
    """Repetitions of one job list: timings, outcomes and failures."""

    def __init__(self, first=None):
        self.rep_wall = []      # job-list seconds per repetition
        self.job_s = {}         # job name -> seconds per repetition
        # job name -> first successful Outcome; may be shared between
        # measurements of the same inputs
        self.first = {} if first is None else first
        self.attempted = 0
        self.failed = 0

    @property
    def wall_s(self) -> float:
        return statistics.median(self.rep_wall)

    def time_to_se(self, target: float = TARGET_SE) -> float:
        """Projected seconds to reach standard error `target`: per
        repetition, the sum over jobs with an estimate of
        job_s * (se / target)^2; the median over repetitions."""
        weights = {name: (out.se / target) ** 2
                   for name, out in self.first.items() if out.se is not None}
        return statistics.median(
            sum(w * self.job_s[name][r] for name, w in weights.items())
            for r in range(len(self.rep_wall)))


def judge(job, out, earlier: dict, first: dict):
    """Failure message for one job execution, or None."""
    if out is None:
        return "raised"
    if not out.ok:
        return "did not converge or exited non-zero"
    msg = job.check(out, earlier)
    if msg:
        return msg
    if out.value is not None:
        ref = first.get(job.name)
        if ref is not None and (out.value, out.se) != (ref.value, ref.se):
            return "result differs between repetitions of the same seed"
    return None


def repetition(jobs, m: Measurement, label: str, tracer=None) -> float:
    """Run the job list once into `m`; return its job time.  Checks run
    outside the timed intervals, and with the tracer inactive."""
    if tracer is not None:
        tracer.begin_rep()
    earlier = {}
    wall = 0.0
    for job in jobs:
        span = tracer.job(job.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = job.run()
        except Exception:  # a failing job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        wall += dt
        m.job_s.setdefault(job.name, []).append(dt)
        m.attempted += 1
        try:
            problem = judge(job, out, earlier, m.first)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problem = "its check raised"
        if problem:
            m.failed += 1
            print(f"FAILED {label} rep {len(m.rep_wall)} {job.name}: "
                  f"{problem}", file=sys.stderr)
        elif out is not None:
            out.detail = None
            earlier[job.name] = out
            m.first.setdefault(job.name, out)
    m.rep_wall.append(wall)
    return wall


def measure(jobs, budget: float, tracer=None) -> list:
    """Repeat rounds of the job list while the next round, at the mean
    pace so far, ends within `budget` seconds of job time (at least one
    round).  Without a tracer a round is one repetition; returns
    [untraced].  With one, a round is a traced repetition, then an
    untraced one with the wrappers removed, so that both see the same
    machine state; returns [traced, untraced]."""
    untraced = Measurement()
    if tracer is None:
        plan = [(untraced, "untraced", None)]
    else:
        traced = Measurement(first=untraced.first)
        plan = [(traced, "traced", tracer), (untraced, "untraced", None)]
    spent, rounds = 0.0, 0
    while not rounds or spent * (1 + 1 / rounds) <= budget:
        for m, label, t in plan:
            with t.installed() if t else contextlib.nullcontext():
                spent += repetition(jobs, m, label, t)
        rounds += 1
    return [m for m, _, _ in plan]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfbsde" / "__init__.py").is_file():
        print(f"mfbsde sources not found under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.sizes["full"]
    meta = run_metadata(args)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, summary = run_workload(workload, args, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"meta": meta, "spans": summary.pop("spans")}))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


def run_workload(workload, args, size, workdir):
    jobs, setup_s = timed_setup(workload, args.seed, size, workdir)
    summary = {}
    if not args.trace:
        runs = measure(jobs, args.seconds)
        peak = peak_rss_mb()
        metrics = {
            "wall_s": runs[0].wall_s,
            "time_to_se1e-3_s": runs[0].time_to_se(),
            "peak_rss_mb": peak,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        # each round starts with its traced repetition, so that
        # picard.rss_mb reads the peak of the first Picard solve and not
        # of an earlier repetition
        tracer = Tracer()
        runs = measure(jobs, args.seconds, tracer)
        traced, untraced = runs
        per_rep = [tracer.rep_metrics(r) for r in range(len(traced.rep_wall))]
        values = {k: statistics.median(r[k] for r in per_rep)
                  for k in per_rep[0]}
        values["picard.rss_mb"] = tracer.first_picard_rss_mb
        values["trace.overhead_s"] = statistics.median(
            a - b for a, b in zip(traced.rep_wall, untraced.rep_wall))
        metrics = {k: {"value": values[k], "unit": LAYER_UNITS[k]}
                   for k in LAYER_UNITS}
        summary["traced_wall_s"] = traced.wall_s
        summary["untraced_wall_s"] = untraced.wall_s
        summary["spans"] = tracer.dump()
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    untraced = runs[-1]
    summary.update({
        "setup_s": setup_s,
        "repetitions": [len(m.rep_wall) for m in runs],
        "untraced_wall_s_quartiles": quartiles(untraced.rep_wall),
        "job_s_median": {name: statistics.median(v)
                         for name, v in untraced.job_s.items()},
        "estimates": {name: [o.value, o.se]
                      for name, o in untraced.first.items()},
        "failed_frac": failed / attempted,
    })
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, summary


if __name__ == "__main__":
    sys.exit(main())
