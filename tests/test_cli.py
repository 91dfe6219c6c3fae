import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from covercount import acceptance, cli
from covercount import shift as sh
from covercount import transfer as tr
from covercount.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def test_validate_fixture_exits_zero(capsys):
    assert run(["validate", "--group", "fixture:b"]) == 0
    out = capsys.readouterr().out
    assert "group ok" in out and "disk gap" in out


def test_validate_bad_group_reports(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "model": "H2",
        "disks": [
            {"minus": {"center": [-3.0, 0.0], "radius": 5.0},
             "plus": {"center": [3.0, 0.0], "radius": 5.0}},
            {"minus": {"center": [-9.0, 0.0], "radius": 1.0},
             "plus": {"center": [9.0, 0.0], "radius": 1.0}},
        ],
        "homology_matrix": [[1, 0]],
    }))
    assert run(["validate", "--group", str(bad)]) == 1
    assert "overlap" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    assert run(["validate", "--group", "/nonexistent/g.json"]) == 3
    assert run(["validate", "--group", str(tmp_path)]) == 3  # a directory


def test_bad_arguments_config_error():
    assert run(["no-such-command"]) == 3


def test_delta_toy_prints_log2(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "delta", "--group", "fixture:toy2"]) == 0
    out = capsys.readouterr().out
    assert "0.693147180560" in out
    run_dirs = list(tmp_path.glob("delta-*"))
    assert len(run_dirs) == 1
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
    assert "summary.json" in manifest["files"]


def test_delta_solves_once_at_the_root(tmp_path, monkeypatch):
    # 10 eigensolves find the root of b, then one certified solve gives
    # delta's report values; its off-node check solves nothing
    sizes = []
    solve = tr._dominant
    monkeypatch.setattr(tr, "_dominant",
                        lambda M, D=None, **kw: sizes.append(M.shape[0]) or solve(M, D, **kw))
    assert run(["--out", str(tmp_path), "delta", "--group", "fixture:b"]) == 0
    assert Counter(sizes) == {96: 11}


def test_root_jobs_run_no_kernel_and_no_lapack_eig(tmp_path, monkeypatch):
    # delta, pressure and a census that needs delta solve every Perron problem
    # with the power loop: neither the Krylov-Schur kernel nor LAPACK's eig or
    # QR runs, whose first call alone adds about 2 MB to the peak RSS; a
    # scan row still runs the kernel
    calls = Counter()

    def counted(name, f):
        return lambda *a, **kw: calls.update([name]) or f(*a, **kw)

    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(tr, "_krylov_schur", counted("kernel", tr._krylov_schur))
    monkeypatch.setattr(sh, "_workers", lambda: 1)  # a forked worker's calls are not counted
    for argv in (["delta", "--group", "fixture:b"],
                 ["pressure", "--group", "fixture:c", "--u=0.1,0.2", "--u=-0.1,-0.2"],
                 ["count-orbit", "--group", "fixture:b", "--t-min", "3", "--t-max", "5",
                  "--checkpoints", "3"]):
        assert run(["--out", str(tmp_path), *argv]) == 0
    assert not calls
    assert run(["--out", str(tmp_path), "scan", "--group", "fixture:b",
                "--t-count", "1", "--v-count", "2"]) == 0
    assert calls["kernel"] == 1 and calls["eig"] >= 1


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_neither_optimize_fft_nor_special():
    # every job pays for the imports of cli, which include the statistics kit
    # and the eigensolver; both are numpy and math alone
    code = ("import sys, covercount.cli, covercount.stats; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_clt_check_runs_with_scipy_blocked(tmp_path):
    # scipy is a test dependency only: a finder that refuses it must not stop
    # the acceptance suite from importing or a clt run with p-values
    code = textwrap.dedent("""
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"blocked: {name}")

        sys.meta_path.insert(0, NoScipy())
        import covercount.acceptance
        from covercount.cli import main
        code = main(sys.argv[1:])
        try:
            import scipy
        except ImportError:
            sys.exit(code)
        sys.exit(9)  # the finder let scipy through
    """)
    args = ["--out", str(tmp_path), "clt", "--group", "fixture:toy2",
            "--traj", "1000", "--steps", "400", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(next(tmp_path.glob("clt-*/summary.json")).read_text())
    assert summary["gaussian_check"]["chi2_p"] >= 0.0


def test_clt_single_trajectory_has_no_covariance(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--out", str(tmp_path), "clt", "--group", "fixture:toy2",
                    "--traj", "1", "--steps", "400", "--seed", "1"]) == 0
    assert "covariance undefined" in capsys.readouterr().out
    summary = json.loads(next(tmp_path.glob("clt-*/summary.json")).read_text())
    assert summary["empirical_cov"] is None and summary["gaussian_check"] is None


def test_output_dir_created(tmp_path):
    target = tmp_path / "deep" / "nested"
    assert run(["--out", str(target), "delta", "--group", "fixture:toy2"]) == 0
    assert target.exists()


def test_clt_seed_partition(tmp_path, capsys):
    """Different seeds: sample blocks differ, delta/sigma blocks identical."""
    code = run(["--out", str(tmp_path / "a"), "clt", "--group", "fixture:toy2",
                "--traj", "64", "--steps", "400", "--seed", "1"])
    assert code == 0
    code = run(["--out", str(tmp_path / "b"), "clt", "--group", "fixture:toy2",
                "--traj", "64", "--steps", "400", "--seed", "2"])
    assert code == 0
    s1 = json.loads(next((tmp_path / "a").glob("clt-*/summary.json")).read_text())
    s2 = json.loads(next((tmp_path / "b").glob("clt-*/summary.json")).read_text())
    assert s1["delta"] == s2["delta"]
    assert s1["sigma"] == s2["sigma"]
    assert s1["sample_head"] != s2["sample_head"]


def test_clt_rerun_identical_manifest(tmp_path):
    for sub in ("x", "y"):
        assert run(["--out", str(tmp_path / sub), "clt", "--group", "fixture:toy2",
                    "--traj", "48", "--steps", "300", "--seed", "9"]) == 0
    m1 = json.loads(next((tmp_path / "x").glob("clt-*/manifest.json")).read_text())
    m2 = json.loads(next((tmp_path / "y").glob("clt-*/manifest.json")).read_text())
    assert m1["files"] == m2["files"]
    assert m1["config_hash"] == m2["config_hash"]


def test_pressure_report_rows(tmp_path):
    # pressure.csv: one (u, P(u)) row for u = 0 (delta), then one per --u point
    assert run(["--out", str(tmp_path), "pressure", "--group", "fixture:toy2",
                "--u", "0.3", "--u", "-0.5"]) == 0
    (run_dir,) = tmp_path.glob("pressure-*")
    lines = (run_dir / "pressure.csv").read_text().splitlines()
    assert lines[0] == "u_0,P"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 0.3, -0.5]
    for u, p in rows:
        assert abs(p - math.log(2.0 * math.cosh(u))) < 1e-12
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) == {"delta", "extra", "gradient", "hessian", "sigma", "c0"}
    assert summary["extra"] == {"0.3": rows[1][1], "-0.5": rows[2][1]}


def test_scan_toy_control_flagged(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "scan", "--group", "fixture:toy2",
                "--t-min", str(2 * math.pi), "--t-max", str(2 * math.pi),
                "--t-count", "1", "--v-count", "1"]) == 0
    out = capsys.readouterr().out
    assert "violations: 1" in out


def test_count_orbit_on_fixture(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "count-orbit", "--group", "fixture:b",
                "--t-min", "4", "--t-max", "8", "--checkpoints", "6",
                "--classes", "0", "1", "-1"]) == 0
    out = capsys.readouterr().out
    assert "class (0,)" in out
    csv = next(tmp_path.glob("count-orbit-*/census.csv")).read_text()
    assert csv.splitlines()[0] == "checkpoint,class,count,predicted,ratio"


def test_holonomy_on_fixture(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "holonomy", "--group", "fixture:d0",
                "--l-min", "6", "--l-max", "10", "--checkpoints", "4",
                "--p", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "p=1" in out and "p=2" in out


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "fixture:toy2", "traj": 32, "steps": 150}))
    code = run(["--out", str(tmp_path), "--config", str(cfg),
                "clt", "--seed", "3", "--steps", "200"])
    assert code == 0
    summary = json.loads(next(tmp_path.glob("clt-*/summary.json")).read_text())
    # flag overrides the config file; config supplies the rest
    dirs = list(tmp_path.glob("clt-*"))
    manifest = json.loads((dirs[0] / "manifest.json").read_text())
    assert manifest["config"]["steps"] == 200
    assert manifest["config"]["traj"] == 32


def test_config_unknown_key_rejected(tmp_path, capsys):
    # removed options: a config that holds one, such as the manifest config of
    # a pressure run from before --fd-step went, exits 3 and writes nothing
    old_pressure = {"group": "fixture:toy2", "nodes": 24, "fd_step": 1e-3, "u": ["0.3"]}
    cfg = tmp_path / "cfg.json"
    for key, config, command in (
            ("threads", {"threads": 4},
             ["count-orbit", "--group", "fixture:b", "--t-max", "6"]),
            ("fd_step", old_pressure, ["pressure"])):
        cfg.write_text(json.dumps(config))
        assert run(["--out", str(tmp_path), "--config", str(cfg), *command]) == 3
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command[0]}-*"))


def test_config_keys_of_other_commands_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"traj": 32}))  # a clt option
    args = ["count-orbit", "--group", "fixture:b", "--t-min", "4", "--t-max", "6",
            "--checkpoints", "3"]
    assert run(["--out", str(tmp_path / "plain"), *args]) == 0
    assert run(["--out", str(tmp_path / "cfg"), "--config", str(cfg), *args]) == 0
    manifests = []
    for side in ("plain", "cfg"):
        (run_dir,) = (tmp_path / side).glob("count-orbit-*")
        manifests.append((run_dir.name, json.loads((run_dir / "manifest.json").read_text())))
    assert manifests[0][0] == manifests[1][0]
    assert "traj" not in manifests[1][1]["config"]
    assert manifests[0][1]["config"] == manifests[1][1]["config"]


def test_bad_config_file(tmp_path):
    bad = tmp_path / "cfg.json"
    for text in ("{nope", "[1, 2]"):
        bad.write_text(text)
        assert run(["--config", str(bad), "validate", "--group", "fixture:b"]) == 3


_TOY = {"transition": [[1, 1], [1, 1]], "tau": [[1.0, 1.0], [1.0, 1.0]], "f": [[1], [-1]]}
_DISK = {"minus": {"center": [-3.0, 0.0], "radius": 1.0},
         "plus": {"center": [3.0, 0.0], "radius": 1.0}}


@pytest.mark.parametrize("text", [
    "{nope",
    b"\xff\xfe{",
    json.dumps({"model": "H2"}),
    json.dumps({"model": "H4", "disks": [_DISK]}),
    json.dumps({"model": "H2", "disks": [{**_DISK, "plus": {"center": [3.0, 0.0],
                                                             "radius": "abc"}}]}),
    json.dumps([1, 2]),
    json.dumps({k: v for k, v in _TOY.items() if k != "tau"}),
    json.dumps({**_TOY, "tau": [1.0, 1.0]}),
    json.dumps({**_TOY, "f": [[1], [-1], [0]]}),
    json.dumps({**_TOY, "tau": [[float("nan"), 1.0], [1.0, 1.0]]}),
    json.dumps({"model": "H2", "homology_matrix": [[1, 0]], "disks": [
        {**_DISK, "plus": {"center": [3.0, 0.0], "radius": float("nan")}},
        {"minus": {"center": [-9.0, 0.0], "radius": 1.0},
         "plus": {"center": [9.0, 0.0], "radius": 1.0}}]}),
    json.dumps({**_TOY, "theta": [[float("inf"), 0.0], [0.0, 0.0]]}),
], ids=["not-json", "not-utf8", "no-disks", "model-h4", "radius-not-a-number", "json-list",
        "toy-no-tau", "toy-tau-1d", "toy-extra-cocycle-row", "toy-tau-nan", "radius-nan",
        "toy-theta-infinity"])
@pytest.mark.parametrize("command,code", [("delta", 3), ("validate", 1), ("count-geodesics", 3)])
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, text, command, code):
    bad = tmp_path / "input.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run(["--out", str(tmp_path / "out"), command, "--group", str(bad)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_dump_records_enumerates_once(tmp_path, monkeypatch):
    from covercount import schottky as sk
    calls = {"enumerate_orbit": 0, "primitive_classes": 0}

    def counted(name):
        fn = getattr(sk, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sk, name, counted(name))
    assert run(["--out", str(tmp_path), "count-orbit", "--group", "fixture:b",
                "--t-min", "4", "--t-max", "8", "--checkpoints", "6",
                "--dump-records"]) == 0
    assert run(["--out", str(tmp_path), "count-geodesics", "--group", "fixture:b",
                "--l-min", "6", "--l-max", "10", "--checkpoints", "5",
                "--dump-records"]) == 0
    assert calls == {"enumerate_orbit": 1, "primitive_classes": 1}
    for command in ("count-orbit", "count-geodesics"):
        rep = next(tmp_path.glob(f"{command}-*"))
        totals = json.loads((rep / "summary.json").read_text())["totals"]
        rows = (rep / "records.csv").read_text().splitlines()
        assert len(rows) - 1 == totals[-1] > 0


def test_record_sinks_take_the_enumerator_matrix(tmp_path, monkeypatch):
    from covercount.schottky import SchottkyGroup

    def refuse(self, word):
        raise AssertionError("record sinks must not re-evaluate words")

    monkeypatch.setattr(SchottkyGroup, "evaluate", refuse)
    assert run(["--out", str(tmp_path), "count-geodesics", "--group", "fixture:b",
                "--l-min", "6", "--l-max", "10", "--checkpoints", "5",
                "--dump-records"]) == 0
    assert run(["--out", str(tmp_path), "count-vectors", "--group", "fixture:b",
                "--t-min", "100", "--t-max", "20000", "--checkpoints", "10"]) == 0


@pytest.mark.parametrize("count,code", [(8, 0), (4, 3)])
def test_count_vectors_fit_window(tmp_path, capsys, monkeypatch, count, code):
    # the growth fit takes the top half of the checkpoints, at least 5: 8
    # checkpoints fit on their last 5, and 4 are refused before delta is solved
    solves = []
    solve = tr.critical_exponent
    monkeypatch.setattr(tr, "critical_exponent", lambda spec: solves.append(1) or solve(spec))
    assert run(["--out", str(tmp_path), "count-vectors", "--group", "fixture:b",
                "--checkpoints", str(count)]) == code
    assert len(list(tmp_path.glob("count-vectors-*"))) == (code == 0)
    assert len(solves) == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: --checkpoints") and "'4'" in err and err.count("\n") == 1


def test_count_vectors_indefinite_w0_is_config_error(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "count-vectors", "--group", "fixture:b",
                "--w0", "1,0,-1"]) == 3
    assert "definite" in capsys.readouterr().err


@pytest.mark.parametrize("args,config", [
    (["scan", "--t-count", "0"], {}),
    (["scan", "--t-count", "-3"], {}),
    (["scan", "--v-count", "0"], {}),
    (["scan", "--p"], {}),
    (["clt", "--seed", "1", "--dump-trajectory", "-5"], {}),
    (["scan"], {"t_count": 0}),
], ids=["t-count-0", "t-count-negative", "v-count-0", "p-empty", "dump-trajectory-negative",
        "config-t-count-0"])
def test_empty_grid_or_negative_dump_is_config_error(tmp_path, capsys, args, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--out", str(tmp_path), "--config", str(cfg), *args,
                "--group", "fixture:toy2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*-*"))


@pytest.mark.parametrize("args,config", [
    (["--t-min", "0"], {}),
    (["--t-min", "-5"], {}),
    ([], {"t_min": 0}),
], ids=["t-min-0", "t-min-negative", "config-t-min-0"])
def test_count_vectors_nonpositive_t_min_is_config_error(tmp_path, capsys, args, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--out", str(tmp_path), "--config", str(cfg), "count-vectors",
                "--group", "fixture:b", "--t-max", "20000", *args]) == 3
    assert capsys.readouterr().err.startswith("error: --t-min")
    assert not list(tmp_path.glob("*-*"))


@pytest.mark.parametrize("args,message", [
    (["--t-max", "0"], "error: --t-max: "),
    (["--t-max", "-5"], "error: --t-max: "),
    (["--t-min", "500", "--t-max", "400"], "error: need at least two increasing checkpoints"),
    (["--t-min", "500", "--t-max", "500"], "error: need at least two increasing checkpoints"),
], ids=["t-max-0", "t-max-negative", "t-min-above-t-max", "t-min-at-t-max"])
def test_count_vectors_range_is_config_error(tmp_path, capsys, args, message):
    assert run(["--out", str(tmp_path), "count-vectors", "--group", "fixture:b", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*-*"))


def _float_options():
    """(command, flag, dest, repeated) of every option whose type takes a
    float: it accepts "0.5", which no int option does."""
    found = []
    for command, p in cli.build_parser()._command_parsers.items():
        for a in p._actions:
            if a.option_strings and callable(a.type):
                try:
                    a.type("0.5")
                except ValueError:
                    continue
                found.append((command, a.option_strings[0], a.dest,
                              isinstance(a, argparse._AppendAction)))
    return found


FLOAT_OPTIONS = _float_options()


def test_float_options_are_all_found():
    assert {(c, f) for c, f, _, _ in FLOAT_OPTIONS} == {
        ("pressure", "--u"), ("scan", "--t-min"), ("scan", "--t-max"), ("scan", "--margin"),
        ("count-orbit", "--t-min"), ("count-orbit", "--t-max"),
        ("count-geodesics", "--l-min"), ("count-geodesics", "--l-max"),
        ("count-vectors", "--w0"), ("count-vectors", "--t-min"), ("count-vectors", "--t-max"),
        ("holonomy", "--l-min"), ("holonomy", "--l-max")}


@pytest.mark.parametrize("command,flag,dest,repeated", FLOAT_OPTIONS,
                         ids=[f"{c} {f}" for c, f, _, _ in FLOAT_OPTIONS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_float_option_must_be_finite(tmp_path, capsys, monkeypatch, command, flag, dest,
                                     repeated, value):
    # by flag and by --config file: one error line naming the flag, and the
    # command never starts (count-geodesics --l-max nan used to run until killed)
    for name in list(vars(cli)):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail(f"{args.command} ran"))
    group = "fixture:d0" if command == "holonomy" else "fixture:b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: [value] if repeated else value}))  # NaN, Infinity
    out = str(tmp_path / "out")
    for argv in (["--out", out, command, f"{flag}={value}", "--group", group],
                 ["--out", out, "--config", str(cfg), command, "--group", group]):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def _cli_run_dir(out, blas, command, *args):
    """Run one CLI command in a subprocess at `blas` OpenBLAS threads; its run
    directory under out."""
    env = {k: v for k, v in _src_env().items() if k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = str(blas)
    proc = subprocess.run([sys.executable, "-m", "covercount.cli", "--out", str(out), command,
                           *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (run_dir,) = Path(out).glob(f"{command}-*")
    return run_dir


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def test_scan_and_clt_same_manifest_forked_or_serial(tmp_path):
    # the real worker rule: one BLAS thread per process shares the work
    # between the CPUs, as many BLAS threads as CPUs keeps it in one process
    cpus = _usable_cpus()
    if cpus < 2 or not hasattr(os, "fork"):
        pytest.skip("needs fork and 2 usable CPUs")
    jobs = {"scan": ["--t-max", "2.0", "--t-count", "6", "--v-count", "4"],
            "clt": ["--traj", "600", "--steps", "200", "--seed", "4"]}
    manifests = {}
    for blas in (1, cpus):
        for command, extra in jobs.items():
            run_dir = _cli_run_dir(tmp_path / f"blas{blas}", blas, command,
                                   "--group", "fixture:b", *extra)
            manifests[blas, command] = (run_dir / "manifest.json").read_bytes()
    for command in jobs:
        assert manifests[1, command] == manifests[cpus, command], command


def test_root_reports_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # no step of a root or of pressure_surface depends on the BLAS thread
    # count (LAPACK's solve there moved sigma, c0 and a Hessian entry of c in
    # their last digit); a single-CPU host runs OpenBLAS at one thread only
    if _usable_cpus() < 2:
        pytest.skip("one usable CPU: OpenBLAS cannot run 2 threads to compare with 1")
    jobs = {"pressure": ["--group", "fixture:c", "--u=0.1,0.2", "--u=-0.1,-0.2"],
            "delta": ["--group", "fixture:b"]}
    for command, args in jobs.items():
        files = []
        for blas in (1, 2):
            run_dir = _cli_run_dir(tmp_path / f"blas{blas}", blas, command, *args)
            files.append({f.name: f.read_bytes() for f in sorted(run_dir.iterdir())})
        assert files[0] == files[1], command


# cheap options for every command that writes a manifest
MANIFEST_RUNS = {
    "delta": ["--group", "fixture:toy2"],
    "pressure": ["--group", "fixture:toy2", "--u", "0.3"],
    "scan": ["--group", "fixture:toy2", "--t-count", "2", "--v-count", "2"],
    "count-orbit": ["--group", "fixture:b", "--t-min", "3", "--t-max", "5",
                    "--checkpoints", "3"],
    "count-geodesics": ["--group", "fixture:b", "--l-min", "5", "--l-max", "8",
                        "--checkpoints", "3"],
    "count-vectors": ["--group", "fixture:b", "--t-min", "100", "--t-max", "20000",
                      "--checkpoints", "10"],
    "holonomy": ["--group", "fixture:d0", "--l-min", "5", "--l-max", "8",
                 "--checkpoints", "3"],
    "clt": ["--group", "fixture:toy2", "--traj", "16", "--steps", "50", "--seed", "1"],
    "verify-all": ["--seed", "1"],
}


def _manifest(out, command, args):
    """Run one command (verify-all without its criteria) and read its manifest."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "run_all", lambda seed, progress: [])
        assert run(["--out", str(out), *args]) == 0, command
    (run_dir,) = out.glob(f"{command}-*")
    return json.loads((run_dir / "manifest.json").read_text())


def test_census_manifest_config_is_the_options(tmp_path):
    # the manifest's config holds exactly the subcommand's options, nothing
    # the command derives while it runs
    parsers = cli.build_parser()._command_parsers
    assert set(MANIFEST_RUNS) == set(parsers) - {"validate"}
    for command, extra in MANIFEST_RUNS.items():
        config = _manifest(tmp_path / command, command, [command, *extra])["config"]
        dests = {a.dest for a in parsers[command]._actions if a.dest != "help"}
        assert set(config) == dests, command


def test_manifest_config_round_trips_as_config(tmp_path):
    # a manifest's config, fed back as --config, reproduces the run's config hash
    for command, extra in MANIFEST_RUNS.items():
        first = _manifest(tmp_path / command / "flags", command, [command, *extra])
        cfg = tmp_path / command / "config.json"
        cfg.write_text(json.dumps(first["config"]))
        again = _manifest(tmp_path / command / "config", command,
                          ["--config", str(cfg), command])
        assert again["config_hash"] == first["config_hash"], command
        assert again["config"] == first["config"], command


def _as_config(args):
    """A command line's options as a --config mapping: JSON numbers where the
    text is one (ints stay ints, also for float options), lists for list and
    repeated options, and the flags' dashed names as keys."""
    parser = cli.build_parser()._command_parsers[args[0]]
    many = {a.option_strings[-1] for a in parser._actions
            if a.nargs in ("*", "+") or isinstance(a, argparse._AppendAction)}
    config = {}
    for flag, text in zip(args[1::2], args[2::2]):
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        if flag in many:
            config.setdefault(flag[2:], []).append(value)
        else:
            config[flag[2:]] = value
    return config


def test_config_and_flags_give_one_run_directory(tmp_path):
    for command, extra in MANIFEST_RUNS.items():
        flags = _manifest(tmp_path / command / "flags", command, [command, *extra])
        cfg = tmp_path / command / "config.json"
        cfg.write_text(json.dumps(_as_config([command, *extra])))
        again = _manifest(tmp_path / command / "config", command,
                          ["--config", str(cfg), command])
        assert again["config_hash"] == flags["config_hash"], command
        assert again["config"] == flags["config"], command


@pytest.mark.parametrize("config,args", [
    ({"dump_records": "false"}, ["count-orbit", "--group", "fixture:b", "--t-max", "6"]),
    ({"u": "0.3"}, ["pressure", "--group", "fixture:toy2"]),
    ({"p": 1}, ["scan", "--group", "fixture:toy2", "--t-count", "2", "--v-count", "2"]),
    ({"p": []}, ["scan", "--group", "fixture:toy2", "--t-count", "2", "--v-count", "2"]),
    ({"norm": "bogus", "t_max": 20000}, ["count-vectors", "--group", "fixture:b"]),
    ({"seed": 1.5}, ["verify-all"]),
    ({"traj": 32.0}, ["clt", "--group", "fixture:toy2", "--seed", "1"]),
    ({}, ["pressure", "--group", "fixture:toy2", "--u", "abc"]),
    ({}, ["count-orbit", "--group", "fixture:b", "--classes", "x"]),
    ({}, ["count-vectors", "--group", "fixture:b", "--w0", "a,b,c"]),
    ({}, ["count-orbit", "--group", "fixture:b", "--t-max", "6", "--classes", "1,2"]),
    ({}, ["clt", "--group", "fixture:toy2", "--seed", "-1"]),
    ({}, ["holonomy", "--group", "fixture:d0", "--l-min", "5", "--l-max", "8",
          "--checkpoints", "3", "--p"]),
], ids=["config-switch-as-string", "config-repeated-as-string", "config-list-as-number",
        "config-list-empty", "config-bad-choice", "config-seed-not-int", "config-int-as-float",
        "u-not-a-number", "classes-not-a-number", "w0-not-numbers", "classes-wrong-dimension",
        "seed-negative", "holonomy-p-empty"])
def test_bad_option_value_is_config_error(tmp_path, capsys, config, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--out", str(tmp_path / "out"), "--config", str(cfg), *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_class_with_leading_minus(tmp_path):
    # on a command line the d = 2 class "-1,0" would read as an option
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classes": ["-1,0"]}))
    assert run(["--out", str(tmp_path), "--config", str(cfg), "count-orbit",
                "--group", "fixture:c", "--t-max", "6"]) == 0
    (run_dir,) = tmp_path.glob("count-orbit-*")
    assert json.loads((run_dir / "manifest.json").read_text())["config"]["classes"] == ["-1,0"]
    rows = (run_dir / "census.csv").read_text().splitlines()[1:]
    assert rows and {row.split(",")[1] for row in rows} == {"-1|0"}


def test_u_flag_replaces_config_list(tmp_path, capsys):
    # as every other option: the flag's points replace the file's list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": [0.3]}))
    assert run(["--out", str(tmp_path), "--config", str(cfg), "pressure",
                "--group", "fixture:toy2", "--u", "-0.5"]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("P(")]
    assert printed == [f"P(-0.5) = {math.log(2.0 * math.cosh(0.5)):.12f}"]
    (run_dir,) = tmp_path.glob("pressure-*")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["u"] == ["-0.5"]
    assert run(["--out", str(tmp_path), "--config", str(cfg), "pressure",
                "--group", "fixture:toy2"]) == 0
    assert "P(0.3) = " in capsys.readouterr().out


@pytest.mark.parametrize("args,config", [
    (["--nodes", "0"], {}),
    (["--nodes", "7"], {}),
    ([], {"nodes": 0}),
], ids=["nodes-0", "nodes-7", "config-nodes-0"])
def test_nodes_below_8_is_config_error(tmp_path, capsys, args, config):
    # the rule sits on the declaration, so it holds for toy shifts too, which
    # take no collocation nodes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--out", str(tmp_path), "--config", str(cfg), "delta",
                "--group", "fixture:toy2", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --nodes: ") and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*-*"))


@pytest.mark.parametrize("args", [["--help"], *([c, "--help"] for c in
                                                cli.build_parser()._command_parsers)],
                         ids=lambda args: " ".join(args))
def test_help_prints_and_exits_zero(capsys, args):
    # argparse formats help text only when it prints it
    assert run(args) == 0
    assert capsys.readouterr().out.strip()
