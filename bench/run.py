"""covercount benchmark: runs one workload's CLI jobs for a fixed time and
prints every metric by name and unit, with a correctness verdict.

    python3 bench/run.py --workload numerics --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports covercount from
``src/``.  Load shape: closed loop, one client.  A pass runs each job of the
workload once, back to back, each in a fresh ``python3`` process with the
BLAS thread count pinned to 1.  The first two passes run every job, so every
job is rerun with the same seed; after that, passes run only the jobs whose
last run still fits before ``--seconds`` is up, until none does.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_s (the sum over jobs of each job's median time inside ``cli.main``),
setup_s (median per-job time from process start to entering ``cli.main``) and
peak_rss_mb (the largest of the jobs' median peak RSS).  With ``--trace 1``
whole untraced and traced passes alternate, and the line reports the
per-layer metrics of layers.py.  ``attempted`` counts jobs run; ``failed``
counts jobs that exited non-zero, failed their check, or changed their output
on a rerun with the same seed.  A JSON record of the run, with the machine it
ran on, is written under bench/out/results/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
JOB_TIMEOUT_S = 150

PROBE = """
import json, platform, numpy, scipy, covercount.cli
def blas(mod):
    info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


def child_env(pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_COLOR"] = "1"
    for var in BLAS_VARS:
        if pinned:
            env[var] = str(BLAS_THREADS)
        else:
            env.pop(var, None)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Versions and machine facts; exits when covercount cannot be imported."""
    if not (SRC / "covercount" / "cli.py").is_file():
        sys.exit(f"error: no covercount sources under {SRC}")
    # also writes the bytecode caches, so no timed job pays for compiling
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if probe.returncode != 0:
        sys.exit(f"error: cannot import covercount:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    env.update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               cpu_model=cpu_model(), blas_threads=BLAS_THREADS)
    return env


def run_job(job: workloads.Job, work: Path, trace: bool, ref: dict,
            pinned: bool = True) -> dict:
    """Run one job in a fresh process; return its timings and failures."""
    out, result = work / "out", work / "child.json"
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(int(trace)), "--",
           "--out", str(out), *job.argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(pinned), capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"name": job.name, "command": job.command, "failures": ["timed out"]}
    rec = {"name": job.name, "command": job.command, "failures": []}
    if not result.is_file():
        rec["failures"].append(f"exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return rec
    child = json.loads(result.read_text())
    rec.update(setup_s=child["enter"] - start, main_s=child["leave"] - child["enter"],
               rss_mb=child["maxrss_kb"] / 1024.0, spans=child["spans"])
    if child["rc"] != 0:
        rec["failures"].append(f"exit code {child['rc']}: {proc.stderr.strip()[-400:]}")
        return rec
    reports = [p for p in out.iterdir() if p.is_dir()] if out.is_dir() else []
    if len(reports) != 1:
        rec["failures"].append(f"expected one report directory, found {len(reports)}")
        return rec
    try:
        rec["failures"] += job.check(job, reports[0], ref)
        rec["files"] = json.loads((reports[0] / "manifest.json").read_text())["files"]
    except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
        rec["failures"].append(f"unreadable output: {e!r}")
    return rec


class Runner:
    def __init__(self, jobs: list[workloads.Job], ref: dict, scratch: Path):
        self.jobs, self.ref, self.scratch = jobs, ref, scratch
        self.first_files: dict[str, dict] = {}
        self.took: dict[str, float] = {}  # job -> seconds its last run took
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.passes = 0

    def record(self, rec: dict) -> None:
        self.attempted += 1
        files = rec.pop("files", None)
        if files is not None:
            first = self.first_files.setdefault(rec["name"], files)
            if files != first:
                rec["failures"].append("output differs from the first pass (same seed)")
        self.failed += bool(rec["failures"])
        self.failures += [f"{rec['name']}: {f}" for f in rec["failures"]]

    def run_pass(self, trace: bool, deadline: float | None = None) -> dict | None:
        """Run each job once, in order.  With a deadline, skip every job whose
        last run would no longer end before it; None when no job is left."""
        self.passes += 1
        recs = []
        for job in self.jobs:
            if deadline is not None and time.monotonic() + self.took[job.name] > deadline:
                continue
            work = self.scratch / f"p{self.passes}-{job.name}"
            start = time.monotonic()
            rec = run_job(job, work, trace, self.ref)
            self.took[job.name] = time.monotonic() - start
            shutil.rmtree(work)
            self.record(rec)
            recs.append(rec)
        if not recs:
            return None
        timed = [r for r in recs if "main_s" in r]
        summary = {
            "trace": trace,
            "whole": len(recs) == len(self.jobs),
            "wall_s": sum(r["main_s"] for r in timed),
            "jobs": {r["name"]: {k: r[k] for k in ("main_s", "setup_s", "rss_mb") if k in r}
                     for r in recs},
        }
        if trace:
            summary["layers"] = layers.pass_metrics(timed)
        tag = ("traced" if trace else "pass") + ("" if summary["whole"] else " (part)")
        jobs = " ".join(f"{r['name']} {r.get('main_s', float('nan')):.3f}" for r in recs)
        print(f"{tag} {self.passes}: wall {summary['wall_s']:.3f} s ({jobs})", flush=True)
        return summary


def measure(runner: Runner, deadline: float, trace: bool) -> list[dict]:
    """Untraced passes until `deadline`: the first MIN_PASSES run every job,
    later ones only the jobs that still fit, so the run fills its time.  With
    `trace`, whole untraced and traced passes in turn while another pair fits."""
    passes: list[dict] = []
    if trace:
        while True:
            start = time.monotonic()
            passes += [runner.run_pass(False), runner.run_pass(True)]
            took = time.monotonic() - start
            if time.monotonic() + took > deadline:
                return passes
    while True:
        p = runner.run_pass(False, deadline if len(passes) >= MIN_PASSES else None)
        if p is None:
            return passes
        passes.append(p)


def job_medians(passes: list[dict], key: str) -> dict[str, float]:
    """Each job's median of `key` over the passes that ran it."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for name, job in p["jobs"].items():
            if key in job:
                samples.setdefault(name, []).append(job[key])
    return {name: statistics.median(v) for name, v in samples.items()}


def end_to_end(passes: list[dict]) -> dict:
    setups = [j["setup_s"] for p in passes for j in p["jobs"].values() if "setup_s" in j]
    return {
        "wall_s": sum(job_medians(passes, "main_s").values()),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(job_medians(passes, "rss_mb").values(), default=0.0),
    }


def blas_default_scan(runner: Runner) -> float | None:
    """Points per second of a scan under the BLAS library's own thread default."""
    job = workloads.Job("scan-b-blas-default",
                        ["scan", "--group", "fixture:b", "--t-count", "5"],
                        workloads.check_scan, {"group": "b"})
    rec = run_job(job, runner.scratch / job.name, True, runner.ref, pinned=False)
    runner.record(rec)
    if "spans" not in rec:
        return None
    return layers.pass_metrics([rec])["transfer.scan_points_per_s"]


def per_layer(passes: list[dict], blas_default: float | None) -> dict:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in layers.METRICS}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    if blas_default is not None:
        out["transfer.scan_points_per_s.blas_default"] = blas_default
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH / "out" / "results",
                    help="directory for the JSON record of this run")
    args = ap.parse_args(argv)

    env = environment()
    ref = json.loads((BENCH / "reference.json").read_text())
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"environment": env}), flush=True)
    scratch = BENCH / "out" / f"work-{os.getpid()}"
    try:
        runner = Runner(jobs, ref, scratch)
        deadline = time.monotonic() + args.seconds
        blas_default = blas_default_scan(runner) if args.trace else None
        passes = measure(runner, deadline, bool(args.trace))
        if args.trace:
            metrics, units = per_layer(passes, blas_default), layers.METRICS
        else:
            metrics = end_to_end(passes)
            units = {"wall_s": ("s",), "setup_s": ("s",), "peak_rss_mb": ("MB",)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for f in runner.failures:
        print(f"FAILED {f}", flush=True)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}}
    args.results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "jobs": {j.name: j.argv for j in jobs}, "passes": passes,
              "failures": runner.failures, **result}
    (args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
