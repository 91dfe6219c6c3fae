"""Record the reference values the benchmark checks outputs against.

    python3 bench/make_reference.py

Run once, from the root of a checkout of the commit whose outputs are taken
as correct; writes bench/reference.json.  It runs the census jobs and the two
delta computations through the CLI, exactly as the benchmark does, and
records their exact totals and per-class counts.  Before writing, it checks
the orbit enumerator against the prune-free brute-force oracle on every
census group at a small cut-off, and refuses to write if they disagree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time

import run
import workloads

# (fixture, cut-off T, oracle word length): the length bound exceeds the
# longest word within T, so the oracle is complete up to T.
ORACLE_CASES = (("b", 7.0, 12), ("c", 6.0, 8), ("d0", 7.0, 9))


def oracle_check() -> list[dict]:
    sys.path.insert(0, str(run.SRC))
    from covercount import schottky as sk
    from covercount.groupfile import load_group

    rows = []
    for name, T, max_len in ORACLE_CASES:
        group = load_group(f"fixture:{name}")
        fast: list = []
        sk.enumerate_orbit(group, T, emit=fast.append)
        brute = sk.enumerate_orbit_bruteforce(group, T, max_len)
        longest = max(len(r.word) for r in fast)
        same = (sorted((r.word, r.homology) for r in fast)
                == sorted((r.word, r.homology) for r in brute))
        if not same or longest >= max_len:
            sys.exit(f"enumerate_orbit disagrees with the oracle on {name} at T={T}")
        rows.append({"group": name, "T": T, "max_len": max_len,
                     "records": len(fast), "longest_word": longest})
    return rows


def main() -> int:
    env = run.environment()
    scratch = run.BENCH / "out" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    no_check = lambda job, rep, ref: []  # noqa: E731
    ref = {"delta": {}, "census": {}}
    try:
        deltas = [workloads.Job(f"delta-{g}", ["delta", "--group", f"fixture:{g}"], no_check)
                  for g in ("b", "c")]
        for job in deltas + workloads.census(0):
            job = dataclasses.replace(job, check=no_check)
            work = scratch / job.name
            rec = run.run_job(job, work, False, ref)
            if rec["failures"]:
                sys.exit(f"{job.name} failed: {rec['failures']}")
            rep = next((work / "out").iterdir())
            if job.command == "delta":
                ref["delta"][job.name.split("-")[1]] = workloads.read_summary(rep)["delta"]
            else:
                ref["census"][job.name] = dict(argv=job.argv,
                                               **workloads.census_reference(rep))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ref["oracle_check"] = oracle_check()
    ref["recorded"] = {"date": time.strftime("%Y-%m-%d"), "environment": env}
    (run.BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
