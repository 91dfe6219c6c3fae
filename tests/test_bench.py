"""The benchmark tracer wraps package functions by name; each name must resolve,
and a traced pass over small jobs must run and yield every layer metric."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _bench_module("child")._targets()
    assert targets
    for module, path, *_ in targets:
        owner = importlib.import_module(f"covercount.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"covercount.{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"covercount.{module}.{path}"


# small jobs that reach every traced layer with a work count: the grid build
# (nodes_per_disk), both samplers (n, n_traj), both enumerators (their int results)
TRACED_JOBS = [
    ["delta", "--group", "fixture:toy2"],
    ["clt", "--group", "fixture:toy2", "--traj", "64", "--steps", "100", "--seed", "1",
     "--dump-trajectory", "20"],
    ["count-orbit", "--group", "fixture:b", "--t-max", "6"],  # its delta builds a grid
    ["count-geodesics", "--group", "fixture:b", "--l-min", "4", "--l-max", "8"],
]


@pytest.fixture(scope="module")
def traced_jobs(tmp_path_factory):
    """Each TRACED_JOBS entry run by bench/child.py with TRACE=1, as the
    benchmark's traced pass runs it: (argv, child result)."""
    work = tmp_path_factory.mktemp("traced")
    env = dict(os.environ, NO_COLOR="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = []
    for i, argv in enumerate(TRACED_JOBS):
        result = work / f"{i}.json"
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(result),
                               "1", "--", "--out", str(work / f"out{i}"), *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert result.is_file(), proc.stderr
        runs.append((argv, json.loads(result.read_text()), proc.stderr))
    return runs


def test_traced_jobs_run_and_record_spans(traced_jobs):
    for argv, child, stderr in traced_jobs:
        assert child["rc"] == 0, (argv, stderr[-2000:])
        assert child["spans"], argv


def test_pass_metrics_fills_every_metric(traced_jobs):
    layers = _bench_module("layers")
    jobs = [{"command": argv[0], "main_s": child["leave"] - child["enter"],
             "spans": child["spans"]} for argv, child, _ in traced_jobs]
    m = layers.pass_metrics(jobs)
    assert set(m) == set(layers.METRICS)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in m.values()), m
    # the work counts the tracer reads from arguments and results reached the metrics
    for name in ("transfer.grid_build.calls", "shift.traj_steps_per_s", "shift.dump_steps_per_s",
                 "schottky.enumerate_orbit.records", "schottky.enumerate_orbit.records_per_s",
                 "schottky.primitive_classes.classes"):
        assert m[name] > 0, name


def test_reference_oracle_check_runs(monkeypatch):
    # make_reference.py cross-checks enumerate_orbit against the brute-force
    # oracle before it writes the reference; run that check on small cases, so
    # a change to the records it reads fails here, not at the next recording
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # it imports run, workloads
    make_reference = _bench_module("make_reference")
    monkeypatch.setattr(make_reference, "ORACLE_CASES", (("b", 4.0, 8), ("d0", 4.0, 7)))
    rows = make_reference.oracle_check()
    assert [r["group"] for r in rows] == ["b", "d0"]
    assert all(0 < r["longest_word"] < r["max_len"] and r["records"] > 0 for r in rows), rows
