"""Compare two sets of benchmark runs, or show the spread of one set.

    python3 bench/compare.py RESULTS_DIR              # spread of one set
    python3 bench/compare.py PARENT_DIR CHANGE_DIR    # verdicts, change vs parent

A set is a directory of untraced run records written by run.py (--results),
one per workload and seed.  The two sets are paired by seed; measure them
with the same --seconds, alternating which side runs first.

Per workload and end-to-end metric this prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither) and a
verdict against the bound in BENCHMARK.json:

- gain: the change wins at least 9 of 10 pairs and the medians differ by more
  than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's own spread exceeds the bound, unless every change
  run beats every parent run;
- within bound: otherwise.

The exit code is 1 when a metric regresses or the change fails a check.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {metric: value, "failed": n}."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        values["failed"] = rec["failed"]
        runs[rec["workload"]][rec["seed"]] = values
    if not runs:
        sys.exit(f"no run records in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(directory: Path) -> int:
    spec = bounds()
    print(f"{'workload':10} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'bound':>6}  verdict")
    for workload, by_seed in sorted(load(directory).items()):
        for name, m in spec.items():
            values = [v[name] for v in by_seed.values()]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med
            verdict = ("steady" if share <= m["bound"] / 3 else
                       "within bound" if share <= m["bound"] else "too wide")
            print(f"{workload:10} {name:12} {len(values):3d} {med:12.6g} {q1:12.6g}"
                  f" {q3:12.6g} {share:8.4f} {m['bound']:6.2f}  {verdict}")
        fails = sum(v["failed"] for v in by_seed.values())
        print(f"{workload:10} {'failed jobs':12} {fails:3d}")
    return 0


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = bounds()
    parent, change = load(parent_dir), load(change_dir)
    bad = False
    print(f"{'workload':10} {'metric':12} {'pairs':>5} {'parent q1/med/q3':>32}"
          f" {'change q1/med/q3':>32} {'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_all, c_all = parent[workload], change[workload]
        for name, m in spec.items():
            lower = m["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            pv = [p_all[s][name] for s in sorted(p_all)]
            cv = [c_all[s][name] for s in sorted(c_all)]
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(better(c_all[s][name], p_all[s][name]) for s in seeds)
            win_frac = wins / len(seeds) if seeds else 0.0
            worse_by = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
            if (pq[2] - pq[0]) / pq[1] > m["bound"] and not all(
                    better(c, p) for c in cv for p in pv):
                verdict = "unresolved"
            elif (win_frac >= 0.9 and better(cq[1], pq[1])
                  and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "gain"
            elif worse_by > m["bound"]:
                verdict, bad = "regression", True
            else:
                verdict = "within bound"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:10} {name:12} {len(seeds):5d} {fmt(pq):>32} {fmt(cq):>32}"
                  f" {win_frac:5.2f}  {verdict} ({worse_by:+.1%} vs bound {m['bound']:.0%})")
        p_fail = sum(v["failed"] for v in p_all.values())
        c_fail = sum(v["failed"] for v in c_all.values())
        print(f"{workload:10} {'failed jobs':12} parent {p_fail}, change {c_fail}")
        bad = bad or c_fail > 0
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return spread(Path(argv[0]))
    if len(argv) == 2:
        return compare(Path(argv[0]), Path(argv[1]))
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
