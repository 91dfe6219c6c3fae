"""The benchmark's workloads: which covercount CLI jobs each one runs, drawn
from the seed, and the correctness check applied to each job's report.

A check receives the job, the job's report directory (the one directory the
CLI wrote under its --out root) and the reference values recorded in
reference.json, and returns a list of failure messages (empty when the
output is correct).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DELTA_TOL = 1e-9         # delta against the recorded reference
LAMBDA_TOL = 1e-8        # |lambda(delta) - 1|
SYMMETRY_TOL = 1e-8      # |P(u) - P(-u)|
GAP_MARGIN = 1e-3        # max |lambda| on the scan grid <= 1 - margin
CLT_VAR_TOL = 0.10       # |empirical variance / P''(0) - 1|, as in criterion C8
GEODESIC_RATIO = (0.7, 1.3)
HOLONOMY_RATIO = 0.1


@dataclass
class Job:
    name: str                      # unique in its workload; keys reference.json
    argv: list[str]                # CLI arguments, without --out
    check: Callable[["Job", Path, dict], list[str]]
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def read_summary(rep: Path) -> dict:
    return json.loads((rep / "summary.json").read_text())


def _census_table(rep: Path) -> dict[str, list[float]]:
    """census.csv as class -> [count at each checkpoint]."""
    table: dict[str, list[float]] = {}
    with open(rep / "census.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            table.setdefault(row["class"], []).append(float(row["count"]))
    return table


def _last_ratios(rep: Path) -> dict[str, float]:
    out = {}
    with open(rep / "census.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["class"]] = float(row["ratio"])  # rows ascend per class
    return out


def _negate(cls: str) -> str:
    return "|".join(str(-int(x)) for x in cls.split("|"))


def census_reference(rep: Path) -> dict:
    """The exact values a census job is checked against."""
    table = _census_table(rep)
    return {"totals": [int(x) for x in read_summary(rep)["totals"]],
            "top_counts": {k: int(v[-1]) for k, v in sorted(table.items())}}


# -- checks -------------------------------------------------------------------


def check_delta(job: Job, rep: Path, ref: dict) -> list[str]:
    s = read_summary(rep)
    fails = []
    want = ref["delta"][job.params["group"]]
    if not abs(s["delta"] - want) <= DELTA_TOL:
        fails.append(f"delta {s['delta']!r} differs from reference {want!r}")
    if not s["abs_lambda_err"] < LAMBDA_TOL:
        fails.append(f"|lambda(delta)-1| = {s['abs_lambda_err']:.3e}")
    return fails


def check_pressure(job: Job, rep: Path, ref: dict) -> list[str]:
    s = read_summary(rep)
    fails = []
    want = ref["delta"][job.params["group"]]
    if not abs(s["delta"] - want) <= DELTA_TOL:
        fails.append(f"P(0) {s['delta']!r} differs from reference delta {want!r}")
    for pos, neg in job.params["pairs"]:
        gap = abs(s["extra"][pos] - s["extra"][neg])
        if not gap <= SYMMETRY_TOL:
            fails.append(f"|P({pos}) - P({neg})| = {gap:.3e}")
    return fails


def check_scan(job: Job, rep: Path, ref: dict) -> list[str]:
    s = read_summary(rep)
    fails = []
    want = ref["delta"][job.params["group"]]
    if not abs(s["delta"] - want) <= DELTA_TOL:
        fails.append(f"delta {s['delta']!r} differs from reference {want!r}")
    if s["violations"] != 0:
        fails.append(f"{s['violations']} scan violations")
    if not s["max_abs_lambda"] <= 1.0 - GAP_MARGIN:
        fails.append(f"max |lambda| = {s['max_abs_lambda']!r} > 1 - {GAP_MARGIN}")
    return fails


def check_census(job: Job, rep: Path, ref: dict) -> list[str]:
    want = ref["census"][job.name]
    got = census_reference(rep)
    fails = []
    if got["totals"] != want["totals"]:
        fails.append(f"totals {got['totals']} != reference {want['totals']}")
    if got["top_counts"] != want["top_counts"]:
        fails.append("per-class counts differ from the reference")
    if job.params.get("symmetric"):
        table = _census_table(rep)
        odd = [k for k, v in table.items() if table.get(_negate(k)) != v]
        if odd:
            fails.append(f"class counts not inversion-symmetric: {odd[:5]}")
    if job.params.get("records"):
        with open(rep / "records.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != got["totals"][-1]:
            fails.append(f"records.csv has {rows} rows, census emitted {got['totals'][-1]}")
    ratios = _last_ratios(rep)
    if job.command == "count-geodesics":
        lo, hi = GEODESIC_RATIO
        r = ratios["0"]
        if not lo <= r <= hi:
            fails.append(f"trivial-class ratio {r:.4f} outside [{lo}, {hi}]")
    if job.command == "holonomy":
        bad = {p: r for p, r in ratios.items() if not r < HOLONOMY_RATIO}
        if bad:
            fails.append(f"holonomy ratios not below {HOLONOMY_RATIO}: {bad}")
    return fails


def check_clt(job: Job, rep: Path, ref: dict) -> list[str]:
    s = read_summary(rep)
    cov = s["empirical_cov"]
    var = cov if isinstance(cov, float) else cov[0][0]
    err = abs(var / s["hessian"][0][0] - 1.0)
    if not err < CLT_VAR_TOL:
        return [f"variance ratio off by {err:.4f} (limit {CLT_VAR_TOL})"]
    return []


# -- workloads ------------------------------------------------------------------


def census(seed: int) -> list[Job]:
    """Enumeration plus binning; the cut-offs fix the work, so no seed input."""
    del seed
    return [
        Job("orbit-b", ["count-orbit", "--group", "fixture:b", "--t-max", "13",
                        "--dump-records"], check_census,
            {"symmetric": True, "records": True}),
        Job("orbit-c", ["count-orbit", "--group", "fixture:c", "--t-max", "12.5"],
            check_census, {"symmetric": True}),
        Job("geodesics-b", ["count-geodesics", "--group", "fixture:b", "--l-max", "18.5",
                            "--dump-records"], check_census,
            {"symmetric": True, "records": True}),
        Job("holonomy-d0", ["holonomy", "--group", "fixture:d0", "--l-max", "17"],
            check_census),
        Job("vectors-b", ["count-vectors", "--group", "fixture:b"], check_census),
    ]


def numerics(seed: int) -> list[Job]:
    """Operator assembly and eigensolves, then the equilibrium sampler, batch
    (4096 trajectories) and dump (one): everything but enumeration."""
    rng = random.Random(seed)
    pairs, u_args = [], []
    for _ in range(2):
        a, b = (rng.uniform(-0.4, 0.4) for _ in range(2))
        pos, neg = f"{a:.4f},{b:.4f}", f"{-a:.4f},{-b:.4f}"
        pairs.append((pos, neg))
        u_args += [f"--u={pos}", f"--u={neg}"]
    # |lambda| nears 1 as t -> 0 on the untwisted line, so t_min stays >= 0.05
    t_min, t_max = rng.uniform(0.05, 0.5), rng.uniform(4.0, 6.0)
    s = str(seed % 2**32)
    return [
        Job("delta-b", ["delta", "--group", "fixture:b"], check_delta, {"group": "b"}),
        Job("pressure-c", ["pressure", "--group", "fixture:c", *u_args], check_pressure,
            {"group": "c", "pairs": pairs}),
        Job("scan-b", ["scan", "--group", "fixture:b",
                       "--t-min", f"{t_min:.4f}", "--t-max", f"{t_max:.4f}"],
            check_scan, {"group": "b"}),
        Job("clt-b", ["clt", "--group", "fixture:b", "--traj", "4096", "--steps", "1000",
                      "--seed", s, "--dump-trajectory", "2000"], check_clt),
        Job("clt-toy2", ["clt", "--group", "fixture:toy2", "--traj", "4096",
                         "--steps", "4000", "--seed", s], check_clt),
    ]


WORKLOADS = {"census": census, "numerics": numerics}
