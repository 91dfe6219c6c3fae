"""Smoke tests: each experiment script runs at a small size and writes data."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("orbit_growth.py", ["--t-max", "8", "--checkpoints", "6"]),
    ("pressure_surface_sweep.py", ["--group", "fixture:toy2", "--points", "3"]),
    ("spectral_gap_heatmap.py", ["--t-count", "2", "--v-count", "2"]),
], ids=["orbit_growth", "pressure_surface_sweep", "spectral_gap_heatmap"])
def test_script_writes_data(tmp_path, script, args):
    proc, out = _run(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0


@pytest.mark.parametrize("script,args", [
    ("orbit_growth.py", ["--t-max", "nan"]),
    ("orbit_growth.py", ["--checkpoints", "4"]),  # the growth fit takes >= 5
    ("pressure_surface_sweep.py", ["--u-max", "nan"]),
    ("spectral_gap_heatmap.py", ["--t-max", "inf"]),
], ids=["orbit_growth", "orbit_growth-checkpoints", "pressure_surface_sweep",
        "spectral_gap_heatmap"])
def test_script_bad_option_is_one_error_line(tmp_path, script, args):
    # as the CLI does: one error line, exit 3, no traceback and no data
    proc, out = _run(tmp_path, script, args)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def _run(tmp_path, script, args):
    """The script's process, run with args and --out <tmp_path>/data.dat, and that path."""
    out = tmp_path / "data.dat"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                           "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    return proc, out
